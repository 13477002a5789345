"""Property suite for the crash-state enumerator.

Generated abstract op logs (no filesystem involved — the enumerator is
a pure function of the log) drive three properties:

- **Determinism**: a fixed log enumerates to a fixed state list.
- **Legality**: every enumerated state passes the independent
  :func:`check_state_legal` oracle — it is a legal prefix + per-path
  volatile-suffix reordering + torn tail of the log.
- **Fsync barriers**: a write covered by an honest fsync before the
  crash point is never dropped and never torn, in any state.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.crashstates import (
    _durable_at, _durable_cover, check_state_legal,
    enumerate_crash_states,
)
from repro.durability.vfs import OpRecord

PATHS = ("a", "b", "c")

_op = st.one_of(
    st.tuples(st.just("creat"), st.sampled_from(PATHS)),
    st.tuples(st.just("write"), st.sampled_from(PATHS),
              st.binary(min_size=0, max_size=6)),
    st.tuples(st.just("fsync"), st.sampled_from(PATHS),
              st.booleans()),  # honest?
    st.tuples(st.just("rename"), st.sampled_from(PATHS),
              st.sampled_from(PATHS)),
    st.tuples(st.just("link"), st.sampled_from(PATHS),
              st.sampled_from(PATHS)),
    st.tuples(st.just("unlink"), st.sampled_from(PATHS)),
)

programs = st.lists(_op, min_size=0, max_size=10)


def _build_log(program):
    """Abstract program -> OpRecord log (what an armed gateway would
    have recorded; durability marks are recomputed by the enumerator
    from the fsync records, so they need not be pre-filled here)."""
    log = []
    for index, op in enumerate(program):
        kind = op[0]
        if kind == "creat":
            record = OpRecord(index=index, op="creat", path=op[1])
        elif kind == "write":
            record = OpRecord(index=index, op="write", path=op[1],
                              data=op[2], requested=len(op[2]))
        elif kind == "fsync":
            record = OpRecord(index=index, op="fsync", path=op[1],
                              fault=None if op[2] else "fsync-lie")
        elif kind in ("rename", "link"):
            record = OpRecord(index=index, op=kind, path=op[1],
                              dest=op[2])
        else:
            record = OpRecord(index=index, op="unlink", path=op[1])
        record.point = f"{record.op}:{record.path}"
        log.append(record)
    return log


@settings(max_examples=60)
@given(programs)
def test_enumeration_is_deterministic_for_a_fixed_log(program):
    log = _build_log(program)
    first = enumerate_crash_states(log)
    second = enumerate_crash_states(log)
    assert [s.state_id for s in first] == [s.state_id for s in second]
    assert [s.description for s in first] == [
        s.description for s in second]
    # dedup: every image appears exactly once
    ids = [s.state_id for s in first]
    assert len(ids) == len(set(ids))


@settings(max_examples=60)
@given(programs)
# a rename an honest fsync already made durable must never be dropped
@example([("creat", "a"), ("rename", "a", "b"), ("fsync", "a", True),
          ("creat", "b")])
def test_every_enumerated_state_is_legal(program):
    log = _build_log(program)
    for state in enumerate_crash_states(log):
        assert check_state_legal(log, state) == [], state.description


@settings(max_examples=60)
@given(programs)
def test_fsync_barriers_are_never_reordered_across(program):
    """No state drops or tears a write an honest fsync made durable
    before the crash — the barrier the atomic-write protocol buys."""
    log = _build_log(program)
    cover = _durable_cover(log)
    for state in enumerate_crash_states(log):
        applied = set(state.applied)
        torn = dict(state.torn)
        for record in log:
            if record.index >= state.crash_point:
                continue
            if record.op != "write":
                continue
            if _durable_at(cover, record.index, state.crash_point):
                assert record.index in applied, state.description
                assert record.index not in torn, state.description


@settings(max_examples=40)
@given(programs)
def test_lying_fsyncs_cover_nothing(program):
    """A write whose only fsync coverage is a liar stays volatile: the
    durable cover never cites a lying fsync."""
    log = _build_log(program)
    cover = _durable_cover(log)
    for covered, fsync_index in cover.items():
        record = log[fsync_index]
        assert record.op == "fsync" and record.fault is None
        assert log[covered].path == record.path
        assert covered <= fsync_index
