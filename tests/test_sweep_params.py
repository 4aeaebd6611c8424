"""The one sweep request declaration, and the inputs it guards.

``repro sweep`` and ``POST /sweeps`` derive their options and their
validation from :data:`repro.sweep_params.SWEEP_PARAMS`.  These tests
hold both front doors to the same bounds, check that validating a
request costs what its bytes cost (no fleet is built and no grid is
listed on the request thread), and fuzz the validator, the serve
request path and the lenient BibTeX parser.
"""

from __future__ import annotations

import inspect
import json
import os
import re
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.data
import repro.stats.rounds
from repro.cli import build_parser, main
from repro.continuum import SweepSpec, default_continuum
from repro.corpus.bibtex import publications_from_bibtex
from repro.errors import BibTeXError, MonteCarloError
from repro.pipeline.cache import ArtifactCache
from repro.serve import JobQueue, ServeApp, ServeContext
from repro.sweep_params import SWEEP_PARAMS, check_request
from repro.telemetry import Telemetry

CORES = os.cpu_count() or 1
NAMES = [param.name for param in SWEEP_PARAMS]


@pytest.fixture
def app():
    """A serve app whose jobs do nothing: no sweep, and no fork, ever
    runs."""
    telemetry = Telemetry()
    context = ServeContext(
        cache=ArtifactCache(telemetry=telemetry),
        telemetry=telemetry,
        jobs=JobQueue(lambda job: None, workers=1, maxsize=1_000_000),
    )
    yield ServeApp(context)
    context.jobs.close(drain=False)


@pytest.fixture
def served(tmp_path, app):
    """*app* with a small corpus store behind ``/corpus/*``."""
    from repro.corpus.store import CorpusStore
    from repro.data.bibliography import paper_bibliography

    app.ctx.store = CorpusStore(tmp_path / "corpus.db", threadsafe=True)
    app.ctx.store.extend(list(paper_bibliography()))
    yield app
    app.ctx.store.close()


def post(app, body: bytes) -> tuple[int, dict]:
    status, raw = app.dispatch("POST", "/sweeps", body)
    return status, json.loads(raw)


@pytest.fixture
def nothing_starts(monkeypatch):
    """Fail loudly if a fleet is built or a process pool starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("validation must come first")

    monkeypatch.setattr(repro.data, "synthetic_workflows", refuse)
    monkeypatch.setattr(repro.stats.rounds, "ProcessPoolExecutor", refuse)


class TestDeclaration:
    def test_seven_parameters_once_each(self):
        assert NAMES == ["grid", "fleet", "replications", "seed",
                         "target_ci", "max_replications", "workers"]

    def test_cli_options_come_from_the_declaration(self):
        args = build_parser().parse_args(["sweep"])
        for param in SWEEP_PARAMS:
            assert getattr(args, param.name) == param.default, param.name
        argv = ["sweep"]
        for param in SWEEP_PARAMS:
            argv += ["--" + param.name.replace("_", "-"),
                     "x" if param.kind is str else "7"]
        args = build_parser().parse_args(argv)
        for param in SWEEP_PARAMS:
            value = getattr(args, param.name)
            assert type(value) is param.kind, param.name

    def test_front_doors_restate_no_parameter(self):
        """No hand-written sweep option or field table is left beside the
        declaration."""
        import repro.cli
        import repro.serve.handlers

        cli = inspect.getsource(repro.cli)
        for param in SWEEP_PARAMS:
            flag = "--" + param.name.replace("_", "-")
            assert not re.search(
                rf'sweep\.add_argument\(\s*"{flag}"', cli), flag
        handlers = inspect.getsource(repro.serve.handlers)
        assert "_SWEEP_FIELDS" not in handlers
        assert "_sweep_payload" not in handlers

    def test_defaults_pass_the_validator(self):
        assert check_request({}) == {
            param.name: param.default for param in SWEEP_PARAMS
        }

    @pytest.mark.parametrize("fields, message", [
        ({"fleet": True}, "fleet must be int"),
        ({"seed": 1.0}, "seed must be int"),
        ({"target_ci": "0.1"}, "target_ci must be float"),
        ({"target_ci": 10 ** 400}, "target_ci is out of range"),
        ({"grid": None}, "grid must be str"),
        ({"workers": CORES + 1}, f"workers must be in [0, {CORES}]"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"warp": 9, "fleet": 1}, "unknown sweep field(s): warp"),
    ])
    def test_rejections_name_the_parameter(self, fields, message):
        with pytest.raises(MonteCarloError) as info:
            check_request(fields)
        assert message in str(info.value)

    def test_int_target_ci_becomes_float(self):
        assert check_request({"target_ci": 1})["target_ci"] == 1.0


#: (CLI arguments, POST /sweeps body, parameter named in the error).
BOUND_CASES = [
    (["--seed", "-1"], {"seed": -1}, "seed"),
    (["--workers", str(CORES + 1)], {"workers": CORES + 1}, "workers"),
    (["--workers", "-1"], {"workers": -1}, "workers"),
    (["--fleet", "0"], {"fleet": 0}, "fleet"),
    (["--replications", "0"], {"replications": 0}, "replications"),
    (["--target-ci", "0.1", "--max-replications", "0"],
     {"target_ci": 0.1, "max_replications": 0}, "max_replications"),
    (["--fleet", "1001"], {"fleet": 1001}, "fleet"),
    (["--replications", "100001"], {"replications": 100_001},
     "replications"),
    (["--target-ci", "0.1", "--max-replications", "100001"],
     {"target_ci": 0.1, "max_replications": 100_001}, "max_replications"),
]


class TestFrontDoorsAgree:
    """Both front doors reject the same inputs, before any fleet is
    built or any process starts."""

    @pytest.mark.parametrize("argv, body, name", BOUND_CASES)
    def test_cli_exits_1_without_traceback(
        self, argv, body, name, nothing_starts, capsys
    ):
        assert main(["sweep", "--no-cache", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, body, name", BOUND_CASES)
    def test_http_answers_400(self, argv, body, name, nothing_starts, app):
        status, payload = post(app, json.dumps(body).encode())
        assert status == 400
        assert name in payload["error"]
        assert app.ctx.jobs.jobs() == []

    def test_spec_rejects_a_negative_seed(self):
        with pytest.raises(MonteCarloError, match="seed"):
            SweepSpec(workflows=repro.data.synthetic_workflows(1),
                      continuum=default_continuum(), seed=-1)


class TestValidationCost:
    """Validating a request never does work its byte count does not
    pay for: the fleet and the grid's cells are built by the job."""

    def test_huge_fleet_builds_one_workflow_on_the_request_thread(
        self, app, monkeypatch
    ):
        built = []
        real = repro.data.synthetic_workflows

        def counting(n_workflows, **kwargs):
            built.append(n_workflows)
            return real(n_workflows, **kwargs)

        monkeypatch.setattr(repro.data, "synthetic_workflows", counting)
        status, job = post(app, b'{"fleet": 1000}')
        assert status == 202
        assert built == [1]
        assert app.ctx.jobs.get(job["job"]).payload["fleet"] == 1000
        built.clear()
        status, payload = post(app, b'{"fleet": 1001}')
        assert status == 400
        assert "fleet must be in [1, 1000]" in payload["error"]
        assert built == []

    def test_large_grid_validates_without_listing_cells(
        self, app, monkeypatch
    ):
        def refuse(self):
            raise AssertionError("cells listed during validation")

        monkeypatch.setattr(SweepSpec, "cells", refuse)
        values = ",".join(str(v) for v in range(1, 301))
        grid = f"mtbf={values};jitter={values}"
        status, _ = post(app, json.dumps({"grid": grid}).encode())
        assert status == 202
        status, payload = post(
            app, json.dumps({"grid": grid + ",300"}).encode()
        )
        assert (status, "repeat" in payload["error"]) == (400, True)


# -- fuzzing ------------------------------------------------------------------------

json_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=20)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
grid_numbers = st.one_of(
    st.integers(-5, 10 ** 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["none", "NONE", "x", ""]),
)
grid_axis = st.tuples(
    st.sampled_from(["scheduler", "mtbf", "jitter", "policy", "flux", ""]),
    st.lists(
        grid_numbers | st.sampled_from(
            ["heft", "energy", "round_robin", "restart", "migrate"]),
        max_size=4,
    ),
).map(lambda axis: f"{axis[0]}={','.join(axis[1])}")
grids = st.lists(grid_axis, max_size=4).map(";".join)
body_values = st.integers(-2, 2) | st.integers() | json_values | grids
sweep_bodies = st.fixed_dictionaries(
    {}, optional={name: body_values for name in NAMES}
) | st.dictionaries(
    st.sampled_from(NAMES) | st.text(max_size=8), body_values, max_size=9
)


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=sweep_bodies)
    def test_sweep_bodies_get_202_or_400(self, app, body):
        status, payload = post(app, json.dumps(body).encode())
        assert status in (202, 400), (body, payload)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        route=st.sampled_from([
            ("POST", "/sweeps"), ("GET", "/health"), ("GET", "/jobs"),
            ("GET", "/jobs/zz"), ("DELETE", "/jobs/zz"),
            ("GET", "/corpus/stats"), ("GET", "/corpus/by_venue"),
            ("GET", "/nope"), ("PUT", "/sweeps"),
        ]) | st.tuples(st.text(max_size=12), st.text(max_size=12)).map(
            lambda q: ("GET", "/corpus/query?"
                       + urlencode({"q": q[0], "limit": q[1]}))
        ),
        body=st.binary(max_size=200) | json_values.map(
            lambda value: json.dumps(value).encode()
        ),
    )
    def test_any_bytes_on_any_route_stay_below_500(
        self, served, route, body
    ):
        status, raw = served.dispatch(*route, body)
        assert status < 500, (route, body, raw)
        json.loads(raw)

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(
        st.sampled_from(list('@{}=,"#% \n\\') + [
            "article", "title", "year", "author", "and", "2021", "k1"]),
        max_size=60,
    ).map("".join) | st.text(max_size=120))
    def test_lenient_bibtex_raises_only_bibtex_error(self, text):
        try:
            publications_from_bibtex(text, strict=False)
        except BibTeXError:
            pass

