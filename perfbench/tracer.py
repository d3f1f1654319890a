"""Run one speechdep CLI stage with a span around each public function of the pipeline.

    python3 perfbench/tracer.py SPANS_JSON STAGE [CLI ARGS...]

Every function listed in TRACED is wrapped once, and the wrapper replaces the
original under every name that holds it in any loaded speechdep module; the
names it was bound under are written to SPANS_JSON as `bindings`. Calls
made through `from .network import forward_batch`-style imports (trainer,
evaluation and cli all do this) are therefore timed as well. A span is
[name, start, end, parent index, count]; count is the number of samples a
network pass handled or the size of the cache file read or written, and None
for other functions. Spans are kept in memory and written to SPANS_JSON when
the stage returns. The root span `cli.<stage>` starts before speechdep is
imported, so it covers everything but interpreter start-up and exit.
"""

import time

_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

TRACED = {
    "audio_io": ["synth_corpus", "write_wav", "load_wav", "trim_silence", "save_manifest", "load_manifest"],
    "sampling": ["crop", "plan_balanced", "materialize_training_set", "materialize_eval_set"],
    "features": ["stft", "featurize_raw", "write_feature_cache", "read_feature_cache"],
    "network": ["forward_batch", "backward_batch", "load_model", "save_model"],
    "trainer": ["train", "adadelta_step", "write_history_csv"],
    "evaluation": ["predict_speaker_probs", "prediction_set_for", "confusion", "metrics", "write_metrics_csv"],
    "ensemble": ["fuse", "f1_vs_m_experiment", "write_predictions_csv"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (counter suffix, count taken from the call's arguments)
COUNTERS = {
    "network.forward_batch": ("samples", lambda a, k: len(_arg(a, k, 1, "xs"))),
    "network.backward_batch": ("samples", lambda a, k: len(_arg(a, k, 2, "xs"))),
    "features.read_feature_cache": ("bytes", lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))),
    "features.write_feature_cache": ("bytes", lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))),
}


class Recorder:
    """In-memory span list; the open-span stack gives each new span its parent."""

    def __init__(self, root_name: str, start: float):
        self.spans = [[root_name, start, 0.0, -1, None]]
        self._open = [0]

    def wrap(self, name, fn):
        count = COUNTERS[name][1] if name in COUNTERS else None
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, open_[-1], None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(args, kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def close(self) -> None:
        self.spans[0][2] = time.perf_counter()


def install(recorder: Recorder) -> list[str]:
    """Bind a wrapper under every name of every traced function; returns those `module.attr` names."""
    import speechdep.cli  # noqa: F401  (imports every module the stages use)

    wrappers = {}
    for module_name, names in TRACED.items():
        module = sys.modules[f"speechdep.{module_name}"]
        for name in names:
            original = getattr(module, name)
            wrappers[id(original)] = (original, recorder.wrap(f"{module_name}.{name}", original))
    bound = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "speechdep" and not module_name.startswith("speechdep."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                bound.append(f"{module_name}.{attr}")
    return bound


def main(argv) -> int:
    spans_path, stage_args = argv[0], argv[1:]
    recorder = Recorder(f"cli.{stage_args[0]}", _START)
    bindings = install(recorder)
    from speechdep.cli import main as cli_main

    code = cli_main(stage_args)
    recorder.close()
    with open(spans_path, "w") as fh:
        json.dump({"exit": code, "bindings": bindings, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
