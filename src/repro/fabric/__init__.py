"""Lease-based distributed sweep fabric: :mod:`repro.fabric.fleet` runs a
checkpointed sweep on worker processes that share only a directory, and
:mod:`repro.fabric.chaos` is the seeded kill/stall/interrupt drill behind
``make fabric-smoke``."""
