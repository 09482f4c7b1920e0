"""Time one fresh process's set-up for a benchmark workload.

    python3 benchmark/setup_probe.py <config.json>

Measures ``import prp_sort``, config parsing and dataset loading through the
public loaders, and prints ``{"setup_s": <seconds>, "reference_s": <seconds>}``.
The interpreter's own start-up is not part of it. ``reference_s`` is the
mean of three runs of the reference task (calibrate.py) after the set-up.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    started = time.perf_counter()
    import prp_sort

    with open(sys.argv[1], encoding="utf-8") as handle:
        config = prp_sort.config_from_dict(json.load(handle))
    source = config.dataset
    if isinstance(source, prp_sort.SyntheticSpec):
        prp_sort.generate_synthetic(source.num_queries, source.n, config.master_seed)
    else:
        prp_sort.load_run_file(source.run_path, depth=source.depth)
        prp_sort.load_qrels(source.qrels_path)
        for path in (source.queries_path, source.passages_path):
            if path:
                prp_sort.load_id_text_tsv(path)
    setup_s = time.perf_counter() - started
    import calibrate

    reference_s = sum(calibrate.reference_seconds() for _ in range(3)) / 3
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
