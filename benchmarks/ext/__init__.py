"""Extension experiments that carry their own library code.

Each module here is used by exactly one ``bench_x*`` experiment (and, for
``security``, one example), or is a standalone measurement script, so it
lives beside the experiments rather than under ``src/repro``:

* :mod:`ext.gossip` — §7 decentralised gossip joins (X1);
* :mod:`ext.security` — Z_q RLNC codec + Krohn–Freedman–Mazières
  homomorphic hashing (X4, ``examples/verified_streaming.py``);
* :mod:`ext.binary` — GF(2) XOR-only codec (X5);
* :mod:`ext.pet` — priority encoding transmission (X8);
* :mod:`ext.membership_scaling` — server membership ops/s at growing
  populations (a script: ``python benchmarks/ext/membership_scaling.py``).

``benchmarks/`` is the import root: pytest puts it on ``sys.path`` when
it collects the experiments, and ``pythonpath`` in ``pyproject.toml``
does the same for the unit tests in ``tests/``.
"""
