"""The paper's reference list, encoded as a BibTeX corpus.

A systematic mapping study normally starts from a harvested corpus; this
paper instead collected tools through the ICSC consortium.  To exercise the
full corpus substrate on real data, the paper's own bibliography (40 of the
77 numbered references — every reference cited for a collected tool, plus
the methodology and context references) is embedded here as BibTeX and
loadable as an in-memory :class:`~repro.corpus.store.CorpusStore`.
"""

from __future__ import annotations

from repro.corpus.store import CorpusStore

__all__ = ["bibliography_bibtex", "paper_bibliography"]

_BIBTEX = r"""
@article{akidau2015dataflow,
  author = {Akidau, Tyler and Bradshaw, Robert and Chambers, Craig},
  title = {The Dataflow Model: A Practical Approach to Balancing Correctness, Latency, and Cost in Massive-Scale, Unbounded, Out-of-Order Data Processing},
  journal = {Proceedings of the VLDB Endowment},
  year = {2015},
  doi = {10.14778/2824032.2824076},
  keywords = {dataflow, stream processing, big data}
}
@inproceedings{alsaadi2021exaworks,
  author = {Al-Saadi, Aymen and Ahn, Dong H. and Babuji, Yadu N. and Chard, Kyle},
  title = {ExaWorks: Workflows for Exascale},
  booktitle = {IEEE Workshop on Workflows in Support of Large-Scale Science (WORKS)},
  year = {2021},
  doi = {10.1109/WORKS54523.2021.00012},
  keywords = {workflows, exascale, SDK}
}
@inproceedings{aldinucci2021italian,
  author = {Aldinucci, Marco and Agosta, Giovanni and Andreini, Antonio},
  title = {The Italian research on HPC key technologies across EuroHPC},
  booktitle = {ACM Computing Frontiers},
  year = {2021},
  doi = {10.1145/3457388.3458508},
  keywords = {HPC, EuroHPC, national research}
}
@incollection{aldinucci2017fastflow,
  author = {Aldinucci, Marco and Danelutto, Marco and Kilpatrick, Peter and Torquati, Massimo},
  title = {FastFlow: high-level and efficient streaming on multi-core},
  howpublished = {John Wiley and Sons},
  year = {2017},
  doi = {10.1002/9781119332015.ch13},
  keywords = {structured parallel programming, streaming, multi-core}
}
@inproceedings{aldinucci2018hpc4ai,
  author = {Aldinucci, Marco and Rabellino, Sergio and Pironti, Marco},
  title = {HPC4AI: an AI-on-demand federated platform endeavour},
  booktitle = {ACM International Conference on Computing Frontiers},
  year = {2018},
  doi = {10.1145/3203217.3205340},
  keywords = {cloud, HPC, AI, federated platform}
}
@article{amaral2020programming,
  author = {Amaral, Vasco and Norberto, Beatriz and Goulao, Miguel and Aldinucci, Marco},
  title = {Programming languages for data-Intensive HPC applications: A systematic mapping study},
  journal = {Parallel Computing},
  year = {2020},
  doi = {10.1016/j.parco.2019.102584},
  keywords = {systematic mapping study, HPC, programming languages}
}
@article{arjona2021triggerflow,
  author = {Arjona, Aitor and Garcia Lopez, Pedro and Sampe, Josep},
  title = {Triggerflow: Trigger-based orchestration of serverless workflows},
  journal = {Future Generation Computer Systems},
  year = {2021},
  doi = {10.1016/j.future.2021.06.004},
  keywords = {serverless, orchestration, workflows}
}
@article{balouekthomert2019towards,
  author = {Balouek-Thomert, Daniel and Gibert Renart, Eduard and Zamani, Ali Reza},
  title = {Towards a computing continuum: Enabling edge-to-cloud integration for data-driven workflows},
  journal = {International Journal of High Performance Computing Applications},
  year = {2019},
  doi = {10.1177/1094342019877383},
  keywords = {computing continuum, edge, cloud, workflows}
}
@article{belcastro2019parsoda,
  author = {Belcastro, Loris and Marozzo, Fabrizio and Talia, Domenico and Trunfio, Paolo},
  title = {ParSoDA: high-level parallel programming for social data mining},
  journal = {Social Network Analysis and Mining},
  year = {2019},
  doi = {10.1007/s13278-018-0547-5},
  keywords = {parallel data mining, big data, social data}
}
@inproceedings{bennun2020workflows,
  author = {Ben-Nun, Tal and Gamblin, Todd and Hollman, Daisy S.},
  title = {Workflows are the New Applications: Challenges in Performance, Portability, and Productivity},
  booktitle = {IEEE/ACM International Workshop on Performance, Portability and Productivity in HPC (P3HPC)},
  year = {2020},
  doi = {10.1109/P3HPC51967.2020.00011},
  keywords = {workflows, performance portability, productivity}
}
@article{bonelli2022nethuns,
  author = {Bonelli, Nicola and Del Vigna, Fabio and Fais, Alessandra and Lettieri, Giuseppe and Procissi, Gregorio},
  title = {Programming socket-independent network functions with nethuns},
  journal = {SIGCOMM Computer Communication Review},
  year = {2022},
  doi = {10.1145/3544912.3544917},
  keywords = {network functions, sockets, portability}
}
@inproceedings{bousselmi2016energy,
  author = {Bousselmi, Khadija and Brahmi, Zaki and Gammoudi, Mohamed Mohsen},
  title = {Energy Efficient Partitioning and Scheduling Approach for Scientific Workflows in the Cloud},
  booktitle = {IEEE International Conference on Services Computing (SCC)},
  year = {2016},
  doi = {10.1109/SCC.2016.26},
  keywords = {energy efficiency, scheduling, scientific workflows}
}
@article{cantini2022blest,
  author = {Cantini, Riccardo and Marozzo, Fabrizio and Orsino, Alessio and Talia, Domenico and Trunfio, Paolo},
  title = {Block size estimation for data partitioning in HPC applications using machine learning techniques},
  journal = {CoRR},
  year = {2022},
  doi = {10.48550/arXiv.2211.10819},
  keywords = {data partitioning, machine learning, HPC}
}
@inproceedings{cao2014energy,
  author = {Cao, Fei and Zhu, Michelle M. and Wu, Chase Q.},
  title = {Energy-Efficient Resource Management for Scientific Workflows in Clouds},
  booktitle = {IEEE World Congress on Services (SERVICES)},
  year = {2014},
  doi = {10.1109/SERVICES.2014.76},
  keywords = {energy efficiency, resource management, cloud}
}
@article{catena2017pesos,
  author = {Catena, Matteo and Tonellotto, Nicola},
  title = {Energy-Efficient Query Processing in Web Search Engines},
  journal = {IEEE Transactions on Knowledge and Data Engineering},
  year = {2017},
  doi = {10.1109/TKDE.2017.2681279},
  keywords = {energy efficiency, query processing, search engines}
}
@article{cerroni2022bdmaas,
  author = {Cerroni, Walter and Foschini, Luca and Grabarnik, Genady Ya and Poltronieri, Filippo and Shwartz, Larisa and Stefanelli, Cesare and Tortonesi, Mauro},
  title = {BDMaaS+: Business-Driven and Simulation-Based Optimization of IT Services in the Hybrid Cloud},
  journal = {IEEE Transactions on Network and Service Management},
  year = {2022},
  doi = {10.1109/TNSM.2021.3110139},
  keywords = {hybrid cloud, optimization, IT services}
}
@article{cesario2022chd,
  author = {Cesario, Eugenio and Uchubilo, Paschal I. and Vinci, Andrea and Zhu, Xiaotian},
  title = {Multi-density urban hotspots detection in smart cities: A data-driven approach and experiments},
  journal = {Pervasive and Mobile Computing},
  year = {2022},
  doi = {10.1016/j.pmcj.2022.101687},
  keywords = {clustering, smart cities, hotspots}
}
@article{colonnelli2022jupyter,
  author = {Colonnelli, Iacopo and Aldinucci, Marco and Cantalupo, Barbara and Padovani, Luca},
  title = {Distributed workflows with Jupyter},
  journal = {Future Generation Computer Systems},
  year = {2022},
  doi = {10.1016/j.future.2021.10.007},
  keywords = {Jupyter, workflows, distributed computing}
}
@article{colonnelli2021streamflow,
  author = {Colonnelli, Iacopo and Cantalupo, Barbara and Merelli, Ivan and Aldinucci, Marco},
  title = {StreamFlow: cross-breeding cloud with HPC},
  journal = {IEEE Transactions on Emerging Topics in Computing},
  year = {2021},
  doi = {10.1109/TETC.2020.3019202},
  keywords = {workflow management, cloud, HPC}
}
@article{costantini2022iotwins,
  author = {Costantini, Alessandro and Di Modica, Giuseppe and Ahouangonou, Jean Christian},
  title = {IoTwins: Toward Implementation of Distributed Digital Twins in Industry 4.0 Settings},
  journal = {Computers},
  year = {2022},
  doi = {10.3390/computers11050067},
  keywords = {digital twins, orchestration, industry 4.0}
}
@article{dasilva2023workflows,
  author = {Ferreira da Silva, Rafael and Badia, Rosa M. and Bala, Venkat},
  title = {Workflows Community Summit 2022: A Roadmap Revolution},
  journal = {CoRR},
  year = {2023},
  doi = {10.48550/arXiv.2304.00019},
  keywords = {workflows, community, roadmap}
}
@article{dube2021future,
  author = {Dube, Nicolas and Roweth, Duncan and Faraboschi, Paolo and Milojicic, Dejan S.},
  title = {Future of HPC: The Internet of Workflows},
  journal = {IEEE Internet Computing},
  year = {2021},
  doi = {10.1109/MIC.2021.3103236},
  keywords = {HPC, workflows, internet of workflows}
}
@article{edwards2014kokkos,
  author = {Edwards, H. Carter and Trott, Christian R. and Sunderland, Daniel},
  title = {Kokkos: Enabling manycore performance portability through polymorphic memory access patterns},
  journal = {Journal of Parallel and Distributed Computing},
  year = {2014},
  doi = {10.1016/j.jpdc.2014.07.003},
  keywords = {performance portability, manycore, memory access}
}
@article{feng2007green500,
  author = {Feng, Wu-chun and Cameron, Kirk W.},
  title = {The Green500 List: Encouraging Sustainable Supercomputing},
  journal = {Computer},
  year = {2007},
  doi = {10.1109/MC.2007.445},
  keywords = {energy efficiency, supercomputing, green computing}
}
@inproceedings{ferragina2010compressing,
  author = {Ferragina, Paolo and Manzini, Giovanni},
  title = {On compressing the textual web},
  booktitle = {International Conference on Web Search and Web Data Mining (WSDM)},
  year = {2010},
  doi = {10.1145/1718487.1718536},
  keywords = {compression, web data}
}
@article{fryxell2000flash,
  author = {Fryxell, Bruce and Olson, Kevin and Ricker, Paul M.},
  title = {FLASH: An Adaptive Mesh Hydrodynamics Code for Modeling Astrophysical Thermonuclear Flashes},
  journal = {The Astrophysical Journal Supplement Series},
  year = {2000},
  doi = {10.1086/317361},
  keywords = {adaptive mesh refinement, hydrodynamics, astrophysics}
}
@inproceedings{galimberti2023oscar,
  author = {Galimberti, Enrico and Guindani, Bruno and Filippini, Federica and Sedghani, Hamta and Ardagna, Danilo},
  title = {OSCAR-P and aMLLibrary: Performance Profiling and Prediction of Computing Continua Applications},
  booktitle = {Companion of the ACM/SPEC International Conference on Performance Engineering (ICPE)},
  year = {2023},
  doi = {10.1145/3578245.3584941},
  keywords = {autoML, performance prediction, computing continuum}
}
@article{iorio2022liqo,
  author = {Iorio, Marco and Risso, Fulvio and Palesandro, Alex and Camiciotti, Leonardo and Manzalini, Antonio},
  title = {Computing Without Borders: The Way Towards Liquid Computing},
  journal = {IEEE Transactions on Cloud Computing},
  year = {2022},
  doi = {10.1109/TCC.2022.3229163},
  keywords = {Kubernetes, federation, liquid computing}
}
@inproceedings{kluyver2016jupyter,
  author = {Kluyver, Thomas and Ragan-Kelley, Benjamin and Perez, Fernando and Granger, Brian E.},
  title = {Jupyter Notebooks - a publishing format for reproducible computational workflows},
  booktitle = {Positioning and Power in Academic Publishing},
  year = {2016},
  doi = {10.3233/978-1-61499-649-1-87},
  keywords = {Jupyter, notebooks, reproducibility}
}
@article{lannelongue2021green,
  author = {Lannelongue, Loic and Grealey, Jason and Inouye, Michael},
  title = {Green Algorithms: Quantifying the Carbon Footprint of Computation},
  journal = {Advanced Science},
  year = {2021},
  doi = {10.1002/advs.202100707},
  keywords = {carbon footprint, green computing}
}
@article{lapegna2021clustering,
  author = {Lapegna, Marco and Balzano, Walter and Meyer, Norbert and Romano, Diego},
  title = {Clustering Algorithms on Low-Power and High-Performance Devices for Edge Computing Environments},
  journal = {Sensors},
  year = {2021},
  doi = {10.3390/s21165395},
  keywords = {clustering, low-power devices, edge computing}
}
@inproceedings{lattner2004llvm,
  author = {Lattner, Chris and Adve, Vikram S.},
  title = {LLVM: A Compilation Framework for Lifelong Program Analysis and Transformation},
  booktitle = {IEEE/ACM International Symposium on Code Generation and Optimization (CGO)},
  year = {2004},
  doi = {10.1109/CGO.2004.1281665},
  keywords = {compilers, LLVM, program analysis}
}
@inproceedings{lattner2021mlir,
  author = {Lattner, Chris and Amini, Mehdi and Bondhugula, Uday and Cohen, Albert},
  title = {MLIR: Scaling Compiler Infrastructure for Domain Specific Computation},
  booktitle = {IEEE/ACM International Symposium on Code Generation and Optimization (CGO)},
  year = {2021},
  doi = {10.1109/CGO51591.2021.9370308},
  keywords = {compilers, intermediate representation, MLIR}
}
@inproceedings{delucia2023gpu,
  author = {De Lucia, Gianluca and Lapegna, Marco and Romano, Diego},
  title = {A GPU Accelerated Hyperspectral 3D Convolutional Neural Network Classification at the Edge with Principal Component Analysis Preprocessing},
  booktitle = {Parallel Processing and Applied Mathematics},
  year = {2023},
  keywords = {hyperspectral imaging, CNN, edge computing, GPU}
}
@inproceedings{martinelli2023capio,
  author = {Martinelli, Alberto Riccardo and Torquati, Massimo and Colonnelli, Iacopo and Cantalupo, Barbara and Aldinucci, Marco},
  title = {CAPIO: a Middleware for Transparent I/O Streaming in Data-Intensive Workflows},
  booktitle = {IEEE International Conference on High Performance Computing, Data, and Analytics (HiPC)},
  year = {2023},
  keywords = {I/O streaming, middleware, workflows}
}
@article{mencagli2021windflow,
  author = {Mencagli, Gabriele and Torquati, Massimo and Cardaci, Andrea and Fais, Alessandra and Rinaldi, Luca and Danelutto, Marco},
  title = {WindFlow: High-Speed Continuous Stream Processing With Parallel Building Blocks},
  journal = {IEEE Transactions on Parallel and Distributed Systems},
  year = {2021},
  doi = {10.1109/TPDS.2021.3073970},
  keywords = {stream processing, multi-core, GPU}
}
@article{mingotti2021pmu,
  author = {Mingotti, Alessandro and Costa, Federica and Cavaliere, Diego and Peretto, Lorenzo and Tinarelli, Roberto},
  title = {On the Importance of Characterizing Virtual PMUs for Hardware-in-the-Loop and Digital Twin Applications},
  journal = {Sensors},
  year = {2021},
  doi = {10.3390/s21186133},
  keywords = {phasor measurement unit, hardware-in-the-loop, digital twin}
}
@article{misale2017comparison,
  author = {Misale, Claudia and Drocco, Maurizio and Aldinucci, Marco and Tremblay, Guy},
  title = {A Comparison of Big Data Frameworks on a Layered Dataflow Model},
  journal = {Parallel Processing Letters},
  year = {2017},
  doi = {10.1142/S0129626417400035},
  keywords = {big data, dataflow, frameworks}
}
@inproceedings{pastor2021looking,
  author = {Pastor, Eliana and de Alfaro, Luca and Baralis, Elena},
  title = {Looking for Trouble: Analyzing Classifier Behavior via Pattern Divergence},
  booktitle = {SIGMOD International Conference on Management of Data},
  year = {2021},
  doi = {10.1145/3448016.3457284},
  keywords = {pattern divergence, classifier analysis, subgroups}
}
@inproceedings{petersen2008systematic,
  author = {Petersen, Kai and Feldt, Robert and Mujtaba, Shahid and Mattsson, Michael},
  title = {Systematic Mapping Studies in Software Engineering},
  booktitle = {International Conference on Evaluation and Assessment in Software Engineering (EASE)},
  year = {2008},
  keywords = {systematic mapping study, methodology, software engineering}
}
@article{puliafito2022movequic,
  author = {Puliafito, Carlo and Conforti, Luca and Virdis, Antonio and Mingozzi, Enzo},
  title = {Server-side QUIC connection migration to support microservice deployment at the edge},
  journal = {Pervasive and Mobile Computing},
  year = {2022},
  doi = {10.1016/j.pmcj.2022.101580},
  keywords = {QUIC, migration, microservices, edge}
}
@article{reed2015exascale,
  author = {Reed, Daniel A. and Dongarra, Jack J.},
  title = {Exascale computing and Big Data},
  journal = {Communications of the ACM},
  year = {2015},
  doi = {10.1145/2699414},
  keywords = {exascale, big data, HPC}
}
@inproceedings{rosa2022insane,
  author = {Rosa, Lorenzo and Garbugli, Andrea},
  title = {INSANE - A Uniform Middleware API for Differentiated Quality using Heterogeneous Acceleration Techniques at the Network Edge},
  booktitle = {IEEE International Conference on Distributed Computing Systems (ICDCS)},
  year = {2022},
  doi = {10.1109/ICDCS54860.2022.00134},
  keywords = {middleware, network acceleration, edge}
}
@inproceedings{roy2022mashup,
  author = {Roy, Rohan Basu and Patel, Tirthak and Gadepally, Vijay and Tiwari, Devesh},
  title = {Mashup: making serverless computing useful for HPC workflows via hybrid execution},
  booktitle = {ACM SIGPLAN Symposium on Principles and Practice of Parallel Programming (PPoPP)},
  year = {2022},
  doi = {10.1145/3503221.3508407},
  keywords = {serverless, HPC, workflows, hybrid execution}
}
@inproceedings{russorusso2023serverledge,
  author = {Russo Russo, Gabriele and Mannucci, Tiziana and Cardellini, Valeria and Lo Presti, Francesco},
  title = {Serverledge: Decentralized Function-as-a-Service for the Edge-Cloud Continuum},
  booktitle = {IEEE International Conference on Pervasive Computing and Communications (PerCom)},
  year = {2023},
  doi = {10.1109/PERCOM56429.2023.10099372},
  keywords = {FaaS, edge-cloud continuum, serverless}
}
@article{tomarchio2021torch,
  author = {Tomarchio, Orazio and Calcaterra, Domenico and Di Modica, Giuseppe and Mazzaglia, Pietro},
  title = {TORCH: a TOSCA-Based Orchestrator of Multi-Cloud Containerised Applications},
  journal = {Journal of Grid Computing},
  year = {2021},
  doi = {10.1007/s10723-021-09549-z},
  keywords = {TOSCA, orchestration, multi-cloud}
}
@inproceedings{yoo2003slurm,
  author = {Yoo, Andy B. and Jette, Morris A. and Grondona, Mark},
  title = {SLURM: Simple Linux Utility for Resource Management},
  booktitle = {Job Scheduling Strategies for Parallel Processing (JSSPP)},
  year = {2003},
  doi = {10.1007/10968987_3},
  keywords = {SLURM, resource management, batch scheduling}
}
@inproceedings{zaharia2012rdd,
  author = {Zaharia, Matei and Chowdhury, Mosharaf and Das, Tathagata and Dave, Ankur},
  title = {Resilient Distributed Datasets: A Fault-Tolerant Abstraction for In-Memory Cluster Computing},
  booktitle = {USENIX Symposium on Networked Systems Design and Implementation (NSDI)},
  year = {2012},
  keywords = {RDD, in-memory computing, fault tolerance}
}
@article{zaruba2021snitch,
  author = {Zaruba, Florian and Schuiki, Fabian and Hoefler, Torsten and Benini, Luca},
  title = {Snitch: A Tiny Pseudo Dual-Issue Processor for Area and Energy Efficient Execution of Floating-Point Intensive Workloads},
  journal = {IEEE Transactions on Computers},
  year = {2021},
  doi = {10.1109/TC.2020.3027900},
  keywords = {RISC-V, processor, energy efficiency}
}
"""


def bibliography_bibtex() -> str:
    """The embedded BibTeX source of the paper's reference sample."""
    return _BIBTEX


def paper_bibliography() -> CorpusStore:
    """Parse the reference sample into an in-memory :class:`CorpusStore`.

    The 49 records are distinct: deduplicating the store drops none.
    """
    store = CorpusStore()
    store.ingest_bibtex(_BIBTEX)
    return store
