"""perfbench: the host-time benchmark harness for the Spritely NFS simulator.

Everything here measures the simulator **from outside**: it imports only
the public ``repro`` entry points listed in :mod:`perfbench.surface`,
times the calls it makes into them, samples the interpreter stack from
its own signal handler, and reads counters the stack already exposes.
See ``perfbench/README.md`` for the metric and workload glossary.
"""
