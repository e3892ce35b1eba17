"""Time one fresh-process set-up: import fedsim, validate, build, init, evaluate.

Run as ``python3 perfbench/setup_probe.py '<config fields as JSON>'`` from a
checkout; fedsim is imported from the checkout's ``src``. Prints one JSON
object with the set-up time, the round-0 accuracy and where fedsim came from.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    fields = json.loads(sys.argv[1])
    start = time.perf_counter()
    import fedsim

    config = fedsim.ExperimentConfig(**fields).validate()
    context = fedsim.build_context(config)
    state = fedsim.init_state(config, context)
    accuracy, _, _ = fedsim.evaluate(
        state.cluster_models, state.quantum, None, None,
        context.dataset, context.test_indices, config.classes,
    )
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "accuracy": accuracy, "fedsim_file": fedsim.__file__}))
