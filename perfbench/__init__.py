"""Layered benchmark of the wfomc counting pipeline.

Run ``python3 perfbench/run.py --help`` from the repository root. The modules:

* ``workloads``: the four workloads, their seeded inputs and their oracles;
* ``tracing``: span recording around each layer's public entry points;
* ``child``: the single-workload process that ``run`` starts;
* ``run``: the command line, which prints the metrics.
"""
