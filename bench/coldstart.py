"""Cold start of the CLI: import ``apseq.cli`` (numpy included) and load the
workload's configs, as every ``apseq`` invocation does before it works.

run.py times this script as a whole, interpreter start-up included.

    python3 bench/coldstart.py --config a.json b.json ...
    python3 bench/coldstart.py --example heat:8 wave:5 ...
"""

import sys


def main(argv: list[str]) -> int:
    import apseq.cli
    from apseq.config import ScenarioConfig

    mode, items = argv[0], argv[1:]
    if mode == "--config":
        for path in items:
            ScenarioConfig.load(path)
    elif mode == "--example":
        window = apseq.cli.Window(-20, 20)
        for item in items:
            name, n = item.split(":")
            ScenarioConfig.from_dict(
                apseq.cli.example_config(name, int(n), 1.0, window, 1e-10))
    else:
        print(f"coldstart: unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
