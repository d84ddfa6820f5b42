"""The litmus-test catalog.

``fig1_dekker`` is the paper's Figure 1 program (the Dekker /
store-buffering core).  The rest are the standard shapes used to probe
memory models, plus DRF0-conformant variants that exercise Definition 2's
software side: a DRF0 program must appear SC on weakly ordered hardware
even while its racy twin does not.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.core.program import Program, ThreadBuilder
from repro.litmus.parse import LitmusParseError, parse_litmus
from repro.litmus.test import LitmusTest


def fig1_dekker(warm: bool = False) -> LitmusTest:
    """Figure 1: W(x);R(y) || W(y);R(x).  SC forbids r1=r2=0.

    The paper's guard form ("if (Y == 0) kill P2") is modeled by reading
    into registers; outcome (0, 0) is the both-processes-killed result.
    """
    t0 = ThreadBuilder("P0").store("x", 1).load("r1", "y").build()
    t1 = ThreadBuilder("P1").store("y", 1).load("r2", "x").build()
    return LitmusTest(
        name="fig1_dekker" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="fig1_dekker"),
        projection=((0, "r1"), (1, "r2")),
        forbidden=(0, 0),
        description="Figure 1 store-buffering core; (0,0) kills both processes",
        warm_caches=warm,
    )


def fig1_dekker_all_sync(warm: bool = False) -> LitmusTest:
    """Figure 1's program with every access labelled synchronization.

    All conflicting accesses are then synchronization operations on the
    same location, ordered by so — the program obeys DRF0, and hardware
    weakly ordered w.r.t. DRF0 (DEF1/DEF2) must forbid (0, 0).

    It does *not* obey the Section 6 refinement (DRF0-R): a read-only
    sync completing before the conflicting sync write has no
    writer-to-reader edge, so DEF2-R hardware is entitled to — and on
    the invalidation-virtual-channel machine actually does — show
    (0, 0).  This is the model-separating program of
    ``tests/integration/test_model_separation.py``.
    """
    t0 = ThreadBuilder("P0").sync_store("x", 1).sync_load("r1", "y").build()
    t1 = ThreadBuilder("P1").sync_store("y", 1).sync_load("r2", "x").build()
    return LitmusTest(
        name="fig1_dekker_sync" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="fig1_dekker_sync"),
        projection=((0, "r1"), (1, "r2")),
        forbidden=(0, 0),
        description="Dekker with all accesses labelled sync: DRF0, so (0,0) must stay forbidden",
        warm_caches=warm,
    )


def fig1_dekker_fenced(warm: bool = False) -> LitmusTest:
    """Figure 1's program with RP3-style fences between write and read.

    Still racy by DRF0 (fences create no happens-before edges), but
    fence-honouring hardware drains the write before the read issues,
    so (0, 0) is prevented on *any* policy — hardware stronger than the
    weak-ordering contract requires.
    """
    t0 = ThreadBuilder("P0").store("x", 1).fence().load("r1", "y").build()
    t1 = ThreadBuilder("P1").store("y", 1).fence().load("r2", "x").build()
    return LitmusTest(
        name="fig1_dekker_fenced" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="fig1_dekker_fenced"),
        projection=((0, "r1"), (1, "r2")),
        forbidden=(0, 0),
        description="Dekker with RP3 fences: racy, but fences forbid (0,0)",
        warm_caches=warm,
    )


def message_passing(warm: bool = False) -> LitmusTest:
    """MP: W(x);W(flag) || R(flag);R(x).  SC forbids flag=1, x=0."""
    t0 = ThreadBuilder("P0").store("x", 42).store("flag", 1).build()
    t1 = ThreadBuilder("P1").load("r1", "flag").load("r2", "x").build()
    return LitmusTest(
        name="message_passing" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="message_passing"),
        projection=((1, "r1"), (1, "r2")),
        forbidden=(1, 0),
        description="racy message passing; stale data after seeing the flag",
        warm_caches=warm,
    )


def message_passing_sync() -> LitmusTest:
    """MP with a release (SyncStore) and a spinning acquire (SyncLoad).

    DRF0-conformant: the flag is a synchronization variable and the spin
    guarantees the data read happens-after the data write.
    """
    t0 = ThreadBuilder("P0").store("x", 42).sync_store("flag", 1).build()
    t1 = (
        ThreadBuilder("P1")
        .label("spin")
        .sync_load("r1", "flag")
        .beq("r1", 0, "spin")
        .load("r2", "x")
        .build()
    )
    return LitmusTest(
        name="message_passing_sync",
        program=Program([t0, t1], name="message_passing_sync"),
        projection=((1, "r1"), (1, "r2")),
        forbidden=(1, 0),
        description="DRF0 message passing: release flag, spin-acquire, read data",
    )


def load_buffering() -> LitmusTest:
    """LB: R(y);W(x) || R(x);W(y).  SC forbids r1=r2=1."""
    t0 = ThreadBuilder("P0").load("r1", "y").store("x", 1).build()
    t1 = ThreadBuilder("P1").load("r2", "x").store("y", 1).build()
    return LitmusTest(
        name="load_buffering",
        program=Program([t0, t1], name="load_buffering"),
        projection=((0, "r1"), (1, "r2")),
        forbidden=(1, 1),
        description="load buffering; needs speculative loads to violate",
    )


def coherence_corr(warm: bool = False) -> LitmusTest:
    """CoRR: two reads of one location must not see new-then-old."""
    t0 = ThreadBuilder("P0").store("x", 1).build()
    t1 = ThreadBuilder("P1").load("r1", "x").load("r2", "x").build()
    return LitmusTest(
        name="coherence_corr" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="coherence_corr"),
        projection=((1, "r1"), (1, "r2")),
        forbidden=(1, 0),
        description="per-location coherence: reads of x may not go backwards",
        warm_caches=warm,
    )


def iriw(warm: bool = False) -> LitmusTest:
    """IRIW: independent readers must agree on the write order (SC).

    SC forbids r1=1,r2=0,r3=1,r4=0 (P2 sees x before y, P3 sees y
    before x).
    """
    t0 = ThreadBuilder("P0").store("x", 1).build()
    t1 = ThreadBuilder("P1").store("y", 1).build()
    t2 = ThreadBuilder("P2").load("r1", "x").load("r2", "y").build()
    t3 = ThreadBuilder("P3").load("r3", "y").load("r4", "x").build()
    return LitmusTest(
        name="iriw" + ("_warm" if warm else ""),
        program=Program([t0, t1, t2, t3], name="iriw"),
        projection=((2, "r1"), (2, "r2"), (3, "r3"), (3, "r4")),
        forbidden=(1, 0, 1, 0),
        description="independent reads of independent writes: write atomicity",
        warm_caches=warm,
    )


def write_to_read_causality(warm: bool = False) -> LitmusTest:
    """WRC: causality through a middleman.

    P0 writes x; P1 reads x then writes y; P2 reads y then x.  SC
    forbids P2 seeing y's update but not x's (r1=1, r2=1, r3=0).
    """
    t0 = ThreadBuilder("P0").store("x", 1).build()
    t1 = ThreadBuilder("P1").load("r1", "x").store("y", "r1").build()
    t2 = ThreadBuilder("P2").load("r2", "y").load("r3", "x").build()
    return LitmusTest(
        name="wrc" + ("_warm" if warm else ""),
        program=Program([t0, t1, t2], name="wrc"),
        projection=((1, "r1"), (2, "r2"), (2, "r3")),
        forbidden=(1, 1, 0),
        description="write-to-read causality through a middleman",
        warm_caches=warm,
    )


def store_then_read_other(warm: bool = False) -> LitmusTest:
    """S: W(x);W(y) || R(y);W(x').  SC forbids r1=1 with P1's write of x
    serialized before P0's (observed as final x=1 while r1=1 means P1 ran
    after P0's y write)."""
    t0 = ThreadBuilder("P0").store("x", 2).store("y", 1).build()
    t1 = ThreadBuilder("P1").load("r1", "y").store("x", 1).build()
    return LitmusTest(
        name="litmus_s" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="litmus_s"),
        projection=((1, "r1"),),
        description="the S shape: coherence order vs program order",
        warm_caches=warm,
    )


def two_plus_two_w(warm: bool = False) -> LitmusTest:
    """2+2W: both processors write both locations in opposite orders.

    SC forbids the final state x=1, y=1 (each processor's *first* write
    surviving): some interleaving must put one second write last.
    """
    t0 = ThreadBuilder("P0").store("x", 1).store("y", 2).build()
    t1 = ThreadBuilder("P1").store("y", 1).store("x", 2).build()
    return LitmusTest(
        name="two_plus_two_w" + ("_warm" if warm else ""),
        program=Program([t0, t1], name="two_plus_two_w"),
        projection=(),
        description="2+2W: final memory must order the write pairs consistently",
        warm_caches=warm,
    )


def coherence_coww() -> LitmusTest:
    """CoWW: same-processor writes to one location must not be reordered."""
    t0 = ThreadBuilder("P0").store("x", 1).store("x", 2).build()
    return LitmusTest(
        name="coherence_coww",
        program=Program([t0], name="coherence_coww"),
        projection=(),
        description="per-location program order of writes (final x must be 2)",
    )


def critical_section() -> LitmusTest:
    """A TestAndSet lock protecting one shared counter (DRF0)."""

    def worker(name: str) -> ThreadBuilder:
        return (
            ThreadBuilder(name)
            .label("acquire")
            .test_and_set("t", "lock")
            .bne("t", 0, "acquire")
            .load("c", "count")
            .add("c", "c", 1)
            .store("count", "c")
            .sync_store("lock", 0)
        )

    t0 = worker("P0").build()
    t1 = worker("P1").build()
    return LitmusTest(
        name="critical_section",
        program=Program([t0, t1], name="critical_section"),
        projection=((0, "c"), (1, "c")),
        description="DRF0 lock-protected increment; final count must be 2",
    )


# ----------------------------------------------------------------------
# Core-originated reordering (PR 6): shapes that only become observable
# when the *processor core* reorders — store-to-load forwarding and
# overlapping in-flight reads on the pipelined core.  They live in their
# own catalog: the standard battery's expectations are pinned by the
# pre-refactor conformance snapshot, which predates these tests.
# ----------------------------------------------------------------------

def store_forward_dekker() -> LitmusTest:
    """SB+rfi: each thread reads its own store before reading the other's.

    ``W(x);R(x);R(y) || W(y);R(y);R(x)``.  SC forces the same-location
    read to return the own store (r1=r3=1) and forbids both cross reads
    returning 0.  A forwarding core satisfies r1/r3 from its pending
    store while the store is still a miss in flight, so both cross reads
    can race ahead and observe the pre-write state — the classic
    store-buffer litmus with the buffer inside the core.
    """
    t0 = (
        ThreadBuilder("P0")
        .store("x", 1).load("r1", "x").load("r2", "y")
        .build()
    )
    t1 = (
        ThreadBuilder("P1")
        .store("y", 1).load("r3", "y").load("r4", "x")
        .build()
    )
    return LitmusTest(
        name="store_forward_dekker",
        program=Program([t0, t1], name="store_forward_dekker"),
        projection=((0, "r1"), (0, "r2"), (1, "r3"), (1, "r4")),
        forbidden=(1, 0, 1, 0),
        description="SB with same-location reads; forwarding exposes (1,0,1,0)",
    )


def store_forward_chain() -> LitmusTest:
    """Forwarding breaks write-to-read causality through a register chain.

    ``W(x)=1; R(x)->r1; W(y)=r1  ||  R(y)->r2; R(x)->r3``.  Without
    forwarding, r1 can only be read once ``x=1`` has committed, so any
    observer that sees ``y=1`` also sees ``x=1``.  A forwarding core
    hands r1 the value of the still-in-flight ``x=1``, letting the
    dependent ``y=1`` reach memory first: (r1,r2,r3) = (1,1,0).
    """
    t0 = (
        ThreadBuilder("P0")
        .store("x", 1).load("r1", "x").store("y", "r1")
        .build()
    )
    t1 = ThreadBuilder("P1").load("r2", "y").load("r3", "x").build()
    return LitmusTest(
        name="store_forward_chain",
        program=Program([t0, t1], name="store_forward_chain"),
        projection=((0, "r1"), (1, "r2"), (1, "r3")),
        forbidden=(1, 1, 0),
        description="forwarded value escapes via a dependent store before its source",
    )


def store_forward_coherence() -> LitmusTest:
    """Forwarding must respect same-location program order.

    ``W(x)=1; W(x)=2; R(x)->r1 || R(x)->r2``: the read must forward from
    the *newest* pending write, so r1=2 always — r1=1 (stale forward)
    and r1=0 (write skipped) are both coherence violations on every
    policy and every core.  The observer thread keeps the location
    contended so the window actually holds both writes.
    """
    t0 = (
        ThreadBuilder("P0")
        .store("x", 1).store("x", 2).load("r1", "x")
        .build()
    )
    t1 = ThreadBuilder("P1").load("r2", "x").build()
    return LitmusTest(
        name="store_forward_coherence",
        program=Program([t0, t1], name="store_forward_coherence"),
        projection=((0, "r1"), (1, "r2")),
        forbidden=(1, 0),
        description="per-location order under forwarding: r1 must be 2",
    )


def mp_release_overlapping_reads() -> LitmusTest:
    """Ordered sync writes vs. overlapping data reads.

    ``Wsync(x)=42; Wsync(flag)=1 || R(flag)->r1; R(x)->r2``.  DEF1
    orders the two sync stores (condition 3: the second issues only
    after the first globally performs), so on a core that blocks each
    read for its value, seeing flag=1 implies seeing x=42.  The
    pipelined core issues both reads back-to-back into its window; the
    x read can be satisfied *before* the flag read, observing (1, 0) —
    reordering that originates entirely in the core.  (The program is
    racy — data reads against sync writes — so DEF1's DRF0 promise does
    not apply to it.)
    """
    t0 = ThreadBuilder("P0").sync_store("x", 42).sync_store("flag", 1).build()
    t1 = ThreadBuilder("P1").load("r1", "flag").load("r2", "x").build()
    return LitmusTest(
        name="mp_release_overlapping_reads",
        program=Program([t0, t1], name="mp_release_overlapping_reads"),
        projection=((1, "r1"), (1, "r2")),
        forbidden=(1, 0),
        description="release-ordered writes, core-overlapped reads: (1,0) needs a pipelined core",
    )


def forwarding_catalog() -> List[LitmusTest]:
    """The core-originated-reordering battery (PR 6)."""
    return [
        store_forward_dekker(),
        store_forward_chain(),
        store_forward_coherence(),
        mp_release_overlapping_reads(),
    ]


def standard_catalog() -> List[LitmusTest]:
    """The full battery used by tests and benchmarks."""
    return [
        fig1_dekker(),
        fig1_dekker(warm=True),
        fig1_dekker_all_sync(),
        fig1_dekker_all_sync(warm=True),
        fig1_dekker_fenced(),
        fig1_dekker_fenced(warm=True),
        message_passing(),
        message_passing(warm=True),
        message_passing_sync(),
        load_buffering(),
        coherence_corr(),
        coherence_corr(warm=True),
        coherence_coww(),
        iriw(),
        iriw(warm=True),
        write_to_read_causality(),
        write_to_read_causality(warm=True),
        store_then_read_other(),
        two_plus_two_w(),
        two_plus_two_w(warm=True),
        critical_section(),
    ]


def catalog_by_name() -> Dict[str, LitmusTest]:
    return {
        test.name: test
        for test in standard_catalog() + forwarding_catalog()
    }


def load_test(name_or_path: str, warm: bool = False) -> LitmusTest:
    """A catalog test by name, or a ``.litmus`` file by path.

    ``warm`` warms the caches of a file's test (catalog tests carry
    their own).  Raises ``ValueError`` for a name that is neither,
    ``OSError`` for a file that cannot be read, and
    :class:`~repro.litmus.parse.LitmusParseError` naming the file for
    one that does not parse.
    """
    catalog = catalog_by_name()
    if name_or_path in catalog:
        return catalog[name_or_path]
    path = Path(name_or_path)
    if path.suffix != ".litmus" and not path.exists():
        raise ValueError(
            f"{name_or_path!r} is neither a catalog test "
            f"({', '.join(sorted(catalog))}) nor a .litmus file"
        )
    source = path.read_text()
    try:
        return parse_litmus(source, warm_caches=warm)
    except LitmusParseError as exc:
        raise LitmusParseError(f"{path}: {exc}") from None
