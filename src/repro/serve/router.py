"""Method + pattern routing table for the serve subsystem.

A deliberately tiny router: ordered ``(method, compiled-regex)`` pairs
mapped to named handlers.  The name doubles as the metrics label, so
``GET /jobs/job-00001-ab12cd34`` and ``GET /jobs/job-00002-99ff0011``
both land in the ``jobs_get`` latency histogram instead of exploding
label cardinality per job id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Route", "RouteMatch", "Router"]

Handler = Callable[..., tuple[int, Any]]


@dataclass(frozen=True)
class Route:
    """One routing entry: HTTP method + path pattern + named handler."""

    method: str
    pattern: re.Pattern
    name: str
    handler: Handler


@dataclass(frozen=True)
class RouteMatch:
    """A dispatch decision: the route plus captured path parameters."""

    route: Route
    params: dict[str, str]


class Router:
    """Ordered route table with 404/405 discrimination.

    Examples
    --------
    >>> router = Router()
    >>> _ = router.add("GET", r"/jobs/(?P<job_id>[^/]+)", "jobs_get",
    ...                lambda job_id: (200, {"job": job_id}))
    >>> match = router.match("GET", "/jobs/j1")
    >>> match.route.name, match.params
    ('jobs_get', {'job_id': 'j1'})
    >>> router.match("PUT", "/jobs/j1") is None  # wrong method -> 405
    True
    >>> router.allowed_methods("/jobs/j1")
    ('GET',)
    """

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(
        self, method: str, pattern: str, name: str, handler: Handler
    ) -> Route:
        """Register *handler* for ``method pattern`` (full-path match)."""
        route = Route(
            method=method.upper(),
            pattern=re.compile(pattern + r"\Z"),
            name=name,
            handler=handler,
        )
        self._routes.append(route)
        return route

    def match(self, method: str, path: str) -> RouteMatch | None:
        """The first route matching ``method path``, or ``None``."""
        method = method.upper()
        for route in self._routes:
            if route.method != method:
                continue
            hit = route.pattern.match(path)
            if hit is not None:
                return RouteMatch(route=route, params=hit.groupdict())
        return None

    def allowed_methods(self, path: str) -> tuple[str, ...]:
        """Methods some route would accept for *path* (drives 405s)."""
        return tuple(
            sorted(
                {
                    route.method
                    for route in self._routes
                    if route.pattern.match(path) is not None
                }
            )
        )

    def routes(self) -> tuple[Route, ...]:
        """Every registered route, in match order."""
        return tuple(self._routes)
