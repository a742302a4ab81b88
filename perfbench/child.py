"""One benchmark job in a fresh process.

    python3 child.py MODE RESULT_JSON TRACE_JSON -- NORMGRAD_ARGV...

MODE is `setup` (import and parse only), `run` (also call
`normgrad.cli.main(argv)` on the unmodified package) or `trace` (the same
call with every layer wrapped by `spans.install`; the span tree is written
to TRACE_JSON). setup_s covers `import normgrad`, building the parser,
parsing the argv and, for `run`, building the experiment config. wall_s
covers the call of `cli.main`. The result is written to RESULT_JSON.
"""

import json
import os
import sys
import time
import traceback


def _setup(argv):
    t0 = time.perf_counter()
    import normgrad
    from normgrad import cli

    args = cli.build_parser().parse_args(argv)
    if args.command == "run":
        with open(args.config, "r", encoding="utf-8") as fh:
            cli.parse_experiment_config(json.load(fh))
    return time.perf_counter() - t0, normgrad, cli


def main(argv):
    split = argv.index("--")
    mode, result_path, trace_path = argv[:split]
    job_argv = argv[split + 1:]
    setup_s, normgrad, cli = _setup(job_argv)
    import numpy

    result = {"setup_s": setup_s, "package": os.path.abspath(normgrad.__file__),
              "numpy": numpy.__version__}
    if mode != "setup":
        tracer = None
        job = cli.main
        if mode == "trace":
            import spans

            result["timer_inner_s"], result["timer_outer_s"] = spans.calibrate()
            tracer = spans.Tracer()
            spans.install(tracer)
            job = tracer.span("job", cli.main)
        t0 = time.perf_counter()
        try:
            rc = job(job_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:
            traceback.print_exc()
            rc = None
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.as_dict(), fh)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
