"""Set-up time of a fresh interpreter: `import fatiguekit` plus `load_config()`.

worker.py starts this script many times per run. It prints one JSON object:
`setup_s`, or with `--trace` the parts of it (the import, `load_config`,
and the rule-pack parse inside `load_config`).
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

traced = "--trace" in sys.argv[1:]
import fatiguekit  # noqa: E402

imported = time.perf_counter()
parse_s = 0.0
if traced:
    from fatiguekit import rules

    parse_rules = rules.parse_rules

    def timed_parse_rules(*args, **kwargs):
        global parse_s
        t0 = time.perf_counter()
        try:
            return parse_rules(*args, **kwargs)
        finally:
            parse_s += time.perf_counter() - t0

    rules.parse_rules = timed_parse_rules

configuring = time.perf_counter()  # patching above is not set-up work
fatiguekit.load_config()
ready = time.perf_counter()

if traced:
    print(json.dumps({"setup.import_s": imported - _started,
                      "pipeline.load_config_s": ready - configuring,
                      "rules.parse_s": parse_s}))
else:
    print(json.dumps({"setup_s": ready - _started}))
