import sys
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from selqa import AdapterError, answer_similarity
from selqa.adapter import ExternalSimilarity

from conftest import adapter_cmd


class TestExternalSimilarity:
    def test_scores_flow_through(self):
        with ExternalSimilarity(adapter_cmd("em"), name="em") as fn:
            assert fn.similarity("red apple", "red apple") == 1.0
            assert fn.similarity("red apple", "blue car") == 0.0

    def test_used_via_answer_similarity(self):
        with ExternalSimilarity(adapter_cmd("jaccard"), name="jac") as fn:
            assert answer_similarity("red apple", "red apple", fn) == 1.0
            assert answer_similarity("red apple", "red car", fn) == pytest.approx(1 / 3)
            # abstention override happens before the adapter sees anything
            assert answer_similarity("unanswerable", "red apple", fn) == 0.0

    def test_out_of_range_score_rejected(self):
        with ExternalSimilarity(adapter_cmd("const:1.5"), name="bad") as fn:
            with pytest.raises(AdapterError, match=r"\[0, 1\]"):
                answer_similarity("a", "b", fn)

    @pytest.mark.parametrize("literal", ["true", "false", '"1"', "null"])
    def test_non_number_score_rejected(self, literal):
        with ExternalSimilarity(adapter_cmd(f"json:{literal}"), name="bad") as fn:
            with pytest.raises(AdapterError, match="not a number"):
                fn.similarity("a", "b")

    def test_reported_error_surfaces(self):
        with ExternalSimilarity(adapter_cmd("error"), name="boom") as fn:
            with pytest.raises(AdapterError, match="scorer exploded"):
                fn.similarity("a", "b")

    def test_garbage_reply(self):
        with ExternalSimilarity(adapter_cmd("garbage"), name="junk") as fn:
            with pytest.raises(AdapterError, match="invalid JSON"):
                fn.similarity("a", "b")

    def test_dead_process(self):
        with ExternalSimilarity(adapter_cmd("die"), name="dead") as fn:
            with pytest.raises(AdapterError, match="closed its output"):
                fn.similarity("a", "b")

    def test_launch_failure(self):
        with pytest.raises(AdapterError, match="failed to launch"):
            ExternalSimilarity(["/nonexistent/scorer-binary"], name="ghost")


class TestAdapterPool:
    def test_parallel_scoring_consistent(self):
        # One scorer process shared by 8 threads. Each request has its own
        # expected score, so a reply read by the wrong thread shows up.
        pairs = [(" ".join(["shared"] + [f"w{j}" for j in range(i % 5)]), "shared")
                 for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        fn = ExternalSimilarity(adapter_cmd("jaccard"), name="jac")
        executor = ThreadPoolExecutor(max_workers=8)
        try:
            futures = [executor.submit(fn.similarity, a, b) for a, b in pairs]
            _, pending = wait(futures, timeout=60)
        finally:
            fn.close()  # a thread still blocked on a reply gets EOF, not a hang
            executor.shutdown()
            sys.setswitchinterval(interval)
        assert not pending
        results = [f.result() for f in futures]
        assert results == [pytest.approx(1 / (1 + i % 5)) for i in range(40)]

    def test_unicode_round_trip(self):
        with ExternalSimilarity(adapter_cmd("em"), name="em") as fn:
            assert fn.similarity("café żółć", "café żółć") == 1.0
