"""Worst inputs inside the default budgets, one test per statement kind.

Nothing may hang or run out of memory within the default budgets.  Each
test here takes a statement kind at its worst known input that the
default budgets admit, and either finishes it under a wall-clock bound
that is generous for a slow host, with a ``tracemalloc`` peak bound, or
shows that it is refused before the engine starts (the engine patched to
raise).  The bounds are far above the measured figures quoted with each
test; they catch a return to an exponential walk, not small slowdowns.
"""

import itertools
import time
import tracemalloc

from localix.interp import interpolate_sequent
from localix.sequent import TOP, Sequent, join_t, meet_t, nvar, var


def _measured(f):
    """``f()``, its wall-clock seconds and its traced peak in bytes."""
    tracemalloc.start()
    try:
        t = time.perf_counter()
        out = f()
        seconds = time.perf_counter() - t
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, seconds, peak


def test_interp_on_the_dnf_tautology_of_the_generator_budget():
    # |- {\/{all 64 full conjunctions over 6 generators}}, both blocks
    # all generators: 320 distinct derivation nodes, about 11,800 as a
    # tree.  Measured at 0.09 s (traced) and a 1.3 MB peak on a 2-vCPU VM.
    gens = "abcdef"
    conj = [
        meet_t(var(g) if bit else nvar(g) for g, bit in zip(gens, bits))
        for bits in itertools.product((False, True), repeat=len(gens))
    ]
    s = Sequent(frozenset(), frozenset([join_t(conj)]))
    (i, _), seconds, peak = _measured(lambda: interpolate_sequent(s, gens, gens))
    assert i is TOP
    assert seconds < 1.0
    assert peak < 16 * 2**20
