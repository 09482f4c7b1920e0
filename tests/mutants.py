"""Source mutants that the suite must catch, one row per mutant.

Each row names a file under ``src/prp_sort``, an ``old`` snippet that occurs
in it exactly once, the ``new`` snippet that replaces it, and the test ids
that must each fail once the replacement is made (an id without a
``[parameter]`` part fails when any of its parametrizations fails).
``tests/test_mutants.py`` checks that every ``old`` snippet is still there,
once; ``scripts/mutants.py`` applies each row in a temporary copy of the
repository and runs that row's tests. A change that rewrites a guarded line
re-aims its row rather than dropping it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ACCEPTANCE = "tests/test_acceptance.py::"
ALGORITHMS = "tests/test_algorithms.py::"
ORACLES = "tests/test_oracles.py::"
GOLDEN = ACCEPTANCE + "test_criterion_5_golden_values_zero_drift"
NOISY_GOLDEN = ACCEPTANCE + "test_criterion_5_noisy_golden_zero_drift"
REFERENCE = "tests/test_reference_sorters.py::test_sorters_ask_the_reference_questions"
EQUIVALENCE = ORACLES + "TestExecutorEquivalence"
SEQUENCE = ALGORITHMS + "TestQuestionSequence"

MUTANTS = [
    # Sorters (algorithms.py).
    Mutant(
        "partial pruning keeps the segment that starts at k",
        "algorithms.py",
        "        if partial and lo >= k:\n",
        "        if partial and lo > k:\n",
        (GOLDEN, NOISY_GOLDEN, REFERENCE),
    ),
    Mutant(
        "median-of-three returns hi and lo swapped",
        "algorithms.py",
        "    return lo if ab is not ac else hi\n",
        "    return hi if ab is not ac else lo\n",
        (GOLDEN, ALGORITHMS + "TestSelectPivot", SEQUENCE),
    ),
    Mutant(
        "median-of-three's `ab is bc` branch returns lo",
        "algorithms.py",
        "        return middle  # b sits between a and c, or the triple is a cycle\n",
        "        return lo  # b sits between a and c, or the triple is a cycle\n",
        (
            GOLDEN,
            ALGORITHMS + "TestSelectPivot::test_median_of_three_exhaustive_triples",
            REFERENCE,
        ),
    ),
    Mutant(
        "random pivot keyed on the seed alone",
        "algorithms.py",
        'Random(stable_seed("pivot", seed, lo, hi))',
        'Random(stable_seed("pivot", seed))',
        (GOLDEN, SEQUENCE, REFERENCE),
    ),
    Mutant(
        "bubblesort without its early exit",
        "algorithms.py",
        "        if not swapped:\n            break\n",
        "",
        (NOISY_GOLDEN, ALGORITHMS + "TestBubblesort", REFERENCE),
    ),
    Mutant(
        "heapsort's beats asks (heap[j], heap[i])",
        "algorithms.py",
        "return ask(oracle, _request((heap[i], heap[j]))) is _FIRST",
        "return ask(oracle, _request((heap[j], heap[i]))) is _SECOND",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "bubblesort asks (order[i], order[i - 1])",
        "algorithms.py",
        "if ask(oracle, _request((order[i - 1], order[i]))) is _SECOND:",
        "if ask(oracle, _request((order[i], order[i - 1]))) is _FIRST:",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "the partition asks (pivot, doc)",
        "algorithms.py",
        "    prefs = executor.submit_group(oracle, [_request((doc, pivot_doc))"
        " for doc in others])\n",
        "    prefs = executor.submit_group(oracle, [_request((pivot_doc, doc))"
        " for doc in others])\n"
        "    prefs = [pref.flipped() for pref in prefs]\n",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "quicksort pops the right segment first",
        "algorithms.py",
        "        segments.append((mid + 1, hi))\n        segments.append((lo, mid - 1))\n",
        "        segments.append((lo, mid - 1))\n        segments.append((mid + 1, hi))\n",
        (SEQUENCE, REFERENCE),
    ),
    Mutant(
        "heapsort keeps its sift after the k-th extraction",
        "algorithms.py",
        "    return ranking, executor.ledger\n",
        "    if len(heap) > 1:\n"
        "        heap[0] = heap.pop()\n"
        "        sift_down(0, len(heap))\n"
        "    return ranking, executor.ledger\n",
        (GOLDEN, SEQUENCE, REFERENCE),
    ),
    # Judges and the executor (oracles.py).
    Mutant(
        "noisy flip keyed on the ordered pair",
        "oracles.py",
        'Random(stable_seed("flip", self.seed, lo, hi))',
        'Random(stable_seed("flip", self.seed, a, b))',
        (NOISY_GOLDEN, ORACLES + "TestNoisyOracle"),
    ),
    Mutant(
        "ask skips batch_groups += 1",
        "oracles.py",
        "        ledger.batch_groups += 1\n        answer = oracle.compare(req)\n",
        "        answer = oracle.compare(req)\n",
        (EQUIVALENCE,),
    ),
    Mutant(
        "ask counts the call before compare returns",
        "oracles.py",
        "        answer = oracle.compare(req)\n        ledger.inference_calls += 1\n",
        "        ledger.inference_calls += 1\n        answer = oracle.compare(req)\n",
        (EQUIVALENCE,),
    ),
    Mutant(
        "ask's memo mirror not flipped",
        "oracles.py",
        "            memo[(req[1], req[0])] = answer.flipped()\n",
        "            memo[(req[1], req[0])] = answer\n",
        (GOLDEN, ACCEPTANCE + "test_criterion_4_bubblesort_cache_invariance", REFERENCE),
    ),
    Mutant(
        "ask's hit path skips cache_hits += 1",
        "oracles.py",
        "                ledger.cache_hits += 1\n                return answer\n",
        "                return answer\n",
        (GOLDEN, ACCEPTANCE + "test_criterion_4_bubblesort_cache_invariance"),
    ),
    Mutant(
        "_resolve skips batch_groups += 1",
        "oracles.py",
        "        ledger.batch_groups += 1\n        answers: list[Preference] = []\n",
        "        answers: list[Preference] = []\n",
        (EQUIVALENCE, ORACLES + "TestBatchExecutor::test_ceiling_arithmetic"),
    ),
    Mutant(
        "_resolve counts the call before the chunk returns",
        "oracles.py",
        "            prefs = oracle.compare_batch(chunk) if len(chunk) > 1"
        " else [oracle.compare(chunk[0])]\n"
        "            ledger.inference_calls += 1\n",
        "            ledger.inference_calls += 1\n"
        "            prefs = oracle.compare_batch(chunk) if len(chunk) > 1"
        " else [oracle.compare(chunk[0])]\n",
        (EQUIVALENCE, ORACLES + "TestExecutorCache::test_cache_unchanged_when_base_fails"),
    ),
    Mutant(
        "_resolve's memo mirror not flipped",
        "oracles.py",
        "                    memo[(req[1], req[0])] = pref.flipped()\n",
        "                    memo[(req[1], req[0])] = pref\n",
        (
            EQUIVALENCE,
            ORACLES + "TestExecutorCache::test_reversed_pair_hits_with_reoriented_winner",
            ACCEPTANCE + "test_criterion_8_noise_degeneracy",
        ),
    ),
    # Synthetic data (datasets.py).
    Mutant(
        "the position-to-grade list shifted by one place",
        "datasets.py",
        "        for position in range(n)\n",
        "        for position in range(1, n + 1)\n",
        (NOISY_GOLDEN, "tests/test_datasets.py::TestSyntheticGenerator"),
    ),
]
