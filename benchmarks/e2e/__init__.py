"""End-to-end benchmark of the alert gateway: five named workloads,
reference-normalised end-to-end metrics, and a per-layer cost ledger.

See ``README.md`` in this directory for every metric, workload and
command; ``BENCHMARK.json`` at the repository root is the contract the
runner prints against.
"""
