"""Names the benchmark harness in ``perfbench/`` reads or wraps by name.

Its traced runs replace these module attributes from outside the program, so
removing one (for instance an import that looks unused) would break every
traced benchmark run without any other test failing.
"""

import chordal_lab.cli as cli
import chordal_lab.sampling as sampling
import chordal_lab.splits as splits
from chordal_lab.counting import CountingContext

WRAPPED = {
    sampling: ["LabeledGraph", "complete_graph", "glue", "phi_map", "relabel"],
    splits: ["LabeledGraph", "complement", "complete_graph", "sample_split_draw",
             "split_count_q0_truncated", "split_count_q1_truncated",
             "split_count_q_ge2_truncated"],
    cli: ["allow_huge_decimal_output"],
}


def test_benchmark_names_exist():
    missing = [f"{module.__name__}.{name}" for module, names in WRAPPED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    sampler = sampling.ChordalSampler(CountingContext(4, 4))
    assert sampler.ops == 0
    sampler.sample_chordal(4, sampling.RandomStream(1))
    assert sampler.ops > 0


def test_one_shot_split_draws_certify_their_windows_once(monkeypatch):
    # The ``split`` workload draws through the one-shot approx_sample_chordal,
    # which decides its path and builds its sampler on every call.  The window
    # cache is what keeps each draw (about 35 ms at n = 1000) from certifying
    # its windows again (about 0.03 s there).  Removing that cache (ROADMAP
    # item 11) waits for a benchmark change that draws through approx_sampler.
    calls = []
    windows = splits.split_windows

    def counted(n, eps):
        calls.append((n, eps))
        return windows(n, eps)

    monkeypatch.setattr(splits, "split_windows", counted)
    splits._split_plan.cache_clear()
    try:
        for seed in (1, 2):
            splits.approx_sample_chordal(120, "1e-2", sampling.RandomStream(seed))
    finally:
        splits._split_plan.cache_clear()
    assert len(calls) == 1
