"""Differential test of ``CacheHierarchy.read`` against a per-line loop.

``read`` probes the L1 and L2 line tables inline. The reference below
is the loop it replaced: one :meth:`Cache.lookup` per level and line,
a fill from DRAM on a double miss, and an L1 fill of whatever the L2
served. Random programs of reads, writes, flushes and bit flips run on
two identical hierarchies, one per implementation, with and without
cache and DRAM ECC. After every operation the two must agree on the
returned bytes (or the exception raised), the caller's
``AccessTrace``, and the full hierarchy and DRAM state: every level's
lines in LRU order, check bytes, dirty set and ``CacheStats``. Reads
that run off the end of the device, or hit an uncorrectable line,
raise partway and so pin the partial counts they leave behind.

``read_spans`` is checked the same way against a series of reads
(``CacheHierarchy.read`` and the per-line loop) that share one trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, ReproError, UncorrectableMemoryError
from repro.sim import CacheHierarchy, SimMemory
from repro.sim.cache import AccessTrace

SIZE = 1024  # 16 lines of 64 bytes
LINE = 64
GROUPS = 2


def reference_read(caches, addr, n, group, trace=None):
    if trace is None:
        trace = AccessTrace()
    if n == 0:
        return b"", trace
    l1 = caches.l1[group]
    first = addr // LINE
    last = (addr + n - 1) // LINE
    l1_hits = l2_hits = fills = 0
    parts = []
    for line_index in range(first, last + 1):
        data = l1.lookup(line_index)
        if data is not None:
            l1_hits += 1
        else:
            data = caches.l2.lookup(line_index)
            if data is not None:
                l2_hits += 1
            else:
                line_addr = line_index * LINE
                fresh = caches.memory.read(line_addr, min(LINE, SIZE - line_addr))
                data = caches.l2.fill(line_index, fresh)
                fills += 1
            data = l1.fill(line_index, data)
        parts.append(data)
    trace.l1_hits += l1_hits
    trace.l2_hits += l2_hits
    trace.memory_fills += fills
    start = addr - first * LINE
    return b"".join(parts)[start : start + n], trace


def _hierarchy(cache_ecc, dram_ecc, image):
    memory = SimMemory(SIZE, ecc=dram_ecc)
    memory.write(0, image)
    return CacheHierarchy(
        memory, n_groups=GROUPS, l1_lines=3, l2_lines=6, line_size=LINE, ecc=cache_ecc
    )


groups = st.integers(0, GROUPS - 1)
reads = st.tuples(
    st.just("read"), st.integers(0, SIZE - 1), st.integers(0, 3 * LINE), groups,
    st.booleans(),
)
writes = st.integers(0, SIZE - 1).flatmap(
    lambda addr: st.tuples(
        st.just("write"), st.just(addr),
        st.binary(min_size=1, max_size=min(2 * LINE, SIZE - addr)), groups,
    )
)
flushes = st.tuples(
    st.just("flush"), st.sets(st.integers(0, SIZE // LINE - 1), max_size=6),
    st.none() | groups,
)
cache_flips = st.tuples(
    st.just("flip_cache"), st.none() | groups, st.integers(0, 63),
    st.integers(0, LINE - 1), st.integers(0, 7), st.booleans(),
)
dram_flips = st.tuples(
    st.just("flip_dram"), st.integers(0, SIZE - 1), st.integers(0, 7), st.booleans()
)
ops = st.one_of(reads, reads, reads, writes, flushes, cache_flips, dram_flips,
                st.just(("flush_all",)))
# Spans may start up to two lines past the device end.
span_reads = st.tuples(
    st.just("spans"),
    st.lists(st.tuples(st.integers(0, SIZE + LINE), st.integers(0, 3 * LINE)), max_size=5),
    groups,
)
span_ops = st.one_of(span_reads, span_reads, span_reads, writes, flushes, cache_flips,
                     dram_flips, st.just(("flush_all",)))


def series_of_reads(read):
    """``read_spans`` as one ``read`` per span, sharing the trace."""

    def read_spans(caches, spans, group, trace):
        return [read(caches, addr, n, group, trace)[0] for addr, n in spans]

    return read_spans


def _apply(caches, op, trace, read):
    """Run one op; returns what it gave back, or the error it raised."""
    try:
        return _run(caches, op, trace, read)
    except ReproError as exc:
        return type(exc), str(exc)


def _run(caches, op, trace, read):
    kind = op[0]
    if kind == "read":
        _, addr, n, group, shared = op
        return read(caches, addr, n, group, trace if shared else None)
    if kind == "spans":
        _, spans, group = op
        return read(caches, spans, group, trace)
    if kind == "write":
        caches.write(op[1], op[2], op[3])
    elif kind == "flush":
        caches.flush_lines(op[1], op[2])
    elif kind == "flush_all":
        caches.flush_all()
    elif kind == "flip_cache":
        _, group, position, byte, bit, double = op
        level = caches.l2 if group is None else caches.l1[group]
        resident = level.resident_lines
        # A read that runs one line past the device end caches that
        # line empty; there is nothing to flip in it.
        if resident and level.peek_line(line := resident[position % len(resident)]):
            level.flip_bit(line, byte, bit)
            if double:  # a second bit in the same word: uncorrectable
                level.flip_bit(line, byte ^ 1, bit)
    elif kind == "flip_dram":
        _, addr, bit, double = op
        caches.memory.flip_bit(addr, bit)
        if double:
            caches.memory.flip_bit(addr ^ 1, bit)
    return None


@settings(max_examples=300, deadline=None)
@given(
    cache_ecc=st.booleans(),
    dram_ecc=st.booleans(),
    image=st.binary(min_size=SIZE, max_size=SIZE),
    program=st.lists(ops, min_size=1, max_size=40),
)
def test_read_matches_the_per_line_loop(cache_ecc, dram_ecc, image, program):
    _check_same_runs(cache_ecc, dram_ecc, image, program, CacheHierarchy.read, reference_read)


@pytest.mark.parametrize("read", [CacheHierarchy.read, reference_read], ids=["read", "loop"])
@settings(max_examples=200, deadline=None)
@given(
    cache_ecc=st.booleans(),
    dram_ecc=st.booleans(),
    image=st.binary(min_size=SIZE, max_size=SIZE),
    program=st.lists(span_ops, min_size=1, max_size=40),
)
def test_read_spans_matches_a_series_of_reads(read, cache_ecc, dram_ecc, image, program):
    _check_same_runs(
        cache_ecc, dram_ecc, image, program, CacheHierarchy.read_spans, series_of_reads(read)
    )


def _check_same_runs(cache_ecc, dram_ecc, image, program, read, reference_read):
    inline = _hierarchy(cache_ecc, dram_ecc, image)
    reference = _hierarchy(cache_ecc, dram_ecc, image)
    inline_trace, reference_trace = AccessTrace(), AccessTrace()
    for step, op in enumerate(program):
        got = _apply(inline, op, inline_trace, read)
        want = _apply(reference, op, reference_trace, reference_read)
        assert got == want, (step, op)
        assert inline_trace == reference_trace, (step, op)
        assert inline.snapshot() == reference.snapshot(), (step, op)
        assert inline.memory.snapshot() == reference.memory.snapshot(), (step, op)
        for mine, theirs in zip((*inline.l1, inline.l2), (*reference.l1, reference.l2)):
            assert mine.resident_lines == theirs.resident_lines, (step, op)
            assert mine.stats == theirs.stats, (step, op)


def test_failing_read_keeps_counts_of_the_lines_before_it():
    memory = SimMemory(SIZE, ecc=True)
    caches = CacheHierarchy(memory, n_groups=1, l1_lines=4, l2_lines=8, line_size=LINE)
    caches.read(0, LINE, 0)  # line 0 resident in both levels
    memory.flip_bit(2 * LINE, 0)
    memory.flip_bit(2 * LINE + 1, 0)  # line 2: a double error
    trace = AccessTrace()
    with pytest.raises(UncorrectableMemoryError):
        caches.read(0, 3 * LINE, 0, trace)
    assert trace == AccessTrace()  # added to only once a read succeeds
    assert (caches.l1[0].stats.hits, caches.l1[0].stats.misses) == (1, 3)
    assert (caches.l2.stats.hits, caches.l2.stats.misses) == (0, 3)
    assert caches.l1[0].resident_lines == (0, 1)
    assert caches.l2.resident_lines == (0, 1)


def test_failing_span_keeps_counts_of_the_spans_before_it():
    memory = SimMemory(SIZE, ecc=True)
    caches = CacheHierarchy(memory, n_groups=1, l1_lines=4, l2_lines=8, line_size=LINE)
    memory.flip_bit(2 * LINE, 0)
    memory.flip_bit(2 * LINE + 1, 0)  # line 2: a double error
    trace = AccessTrace()
    with pytest.raises(UncorrectableMemoryError):
        caches.read_spans([(0, LINE), (LINE, 2 * LINE), (0, 1)], 0, trace)
    assert trace == AccessTrace(memory_fills=1)  # the first span only
    assert caches.l1[0].resident_lines == (0, 1)


snapshot_ops = st.one_of(st.just(("snapshot",)), st.tuples(st.just("restore"), st.integers(0, 7)))
rewind_ops = st.one_of(span_reads, span_reads, span_reads, writes, flushes, cache_flips,
                       dram_flips, st.just(("flush_all",)), snapshot_ops, snapshot_ops)


def _check_same_runs_with_rewinds(cache_ecc, dram_ecc, image, program):
    """:func:`_check_same_runs` of ``read_spans`` against a series of
    per-line reads, where ``snapshot`` saves both hierarchies and their
    DRAM and ``restore`` rewinds both to a saved point. ``restore``
    rebinds every level's line table and the device's dirty-word set,
    so a read that kept either from an earlier call reads stale state."""
    inline = _hierarchy(cache_ecc, dram_ecc, image)
    reference = _hierarchy(cache_ecc, dram_ecc, image)
    inline_trace, reference_trace = AccessTrace(), AccessTrace()
    saved = []
    for step, op in enumerate(program):
        if op[0] == "snapshot":
            saved.append(
                [(caches.snapshot(), caches.memory.snapshot()) for caches in (inline, reference)]
            )
            continue
        if op[0] == "restore":
            if saved:
                for caches, (levels, dram) in zip((inline, reference), saved[op[1] % len(saved)]):
                    caches.restore(levels)
                    caches.memory.restore(dram)
            continue
        got = _apply(inline, op, inline_trace, CacheHierarchy.read_spans)
        want = _apply(reference, op, reference_trace, series_of_reads(reference_read))
        assert got == want, (step, op)
        assert inline_trace == reference_trace, (step, op)
        assert inline.snapshot() == reference.snapshot(), (step, op)
        assert inline.memory.snapshot() == reference.memory.snapshot(), (step, op)


@settings(max_examples=200, deadline=None)
@given(
    cache_ecc=st.booleans(),
    dram_ecc=st.booleans(),
    image=st.binary(min_size=SIZE, max_size=SIZE),
    program=st.lists(rewind_ops, min_size=1, max_size=40),
)
def test_read_spans_across_snapshot_and_restore(cache_ecc, dram_ecc, image, program):
    _check_same_runs_with_rewinds(cache_ecc, dram_ecc, image, program)


# The same properties at ten times the examples, for the slow tier.
_setups = {
    "cache_ecc": st.booleans(),
    "dram_ecc": st.booleans(),
    "image": st.binary(min_size=SIZE, max_size=SIZE),
}


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(program=st.lists(ops, min_size=1, max_size=40), **_setups)
def test_read_matches_the_per_line_loop_long(cache_ecc, dram_ecc, image, program):
    _check_same_runs(cache_ecc, dram_ecc, image, program, CacheHierarchy.read, reference_read)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(program=st.lists(span_ops, min_size=1, max_size=40), **_setups)
def test_read_spans_matches_a_series_of_reads_long(cache_ecc, dram_ecc, image, program):
    _check_same_runs(
        cache_ecc, dram_ecc, image, program, CacheHierarchy.read_spans,
        series_of_reads(reference_read),
    )


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(program=st.lists(rewind_ops, min_size=1, max_size=40), **_setups)
def test_read_spans_across_snapshot_and_restore_long(cache_ecc, dram_ecc, image, program):
    _check_same_runs_with_rewinds(cache_ecc, dram_ecc, image, program)


@pytest.mark.parametrize("dram_ecc", [False, True])
@pytest.mark.parametrize("addr", [-1, -LINE, -5 * LINE + 3])
def test_span_before_the_device_raises_as_the_per_line_loop(dram_ecc, addr):
    """A corrupted pointer can place a span before address 0: its lines
    must go through ``SimMemory.read`` and raise, never wrap around to
    the end of the device."""
    image = bytes(range(256)) * (SIZE // 256)
    inline = _hierarchy(False, dram_ecc, image)
    reference = _hierarchy(False, dram_ecc, image)
    spans = [(0, 8), (addr, 2 * LINE)]
    got = _apply(inline, ("spans", spans, 0), AccessTrace(), CacheHierarchy.read_spans)
    want = _apply(reference, ("spans", spans, 0), AccessTrace(), series_of_reads(reference_read))
    assert got == want and got[0] is InvalidAddressError
    assert inline.snapshot() == reference.snapshot()
    assert inline.memory.snapshot() == reference.memory.snapshot()
