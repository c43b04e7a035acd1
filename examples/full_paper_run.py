#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Equivalent to ``python -m repro.harness.runner --all --out results/``
with a configurable module subset. At the default bench subset this
takes a few minutes; pass ``--modules`` with all thirty Table 3 names
(and ideally ``--seed``/``StudyScale.paper()`` adjustments in code) for
a full-fidelity run.

Run:  python examples/full_paper_run.py [--out results/]
"""

import argparse

from repro.harness.export import export_output
from repro.harness.plan import build_plan
from repro.harness.registry import EXPERIMENT_IDS, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--modules", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--parallel", type=int, default=None,
        help="pre-run the campaigns through the orchestration service "
             "with N worker processes",
    )
    args = parser.parse_args()

    kwargs = {"seed": args.seed}
    if args.modules:
        kwargs["modules"] = tuple(args.modules)
    if args.parallel:
        plan = build_plan(
            EXPERIMENT_IDS, modules=kwargs.get("modules"), seed=args.seed
        )
        plan.orchestrate(max_workers=args.parallel)
    for experiment_id in EXPERIMENT_IDS:
        output = run_experiment(experiment_id, **kwargs)
        print(output.render())
        print()
        written = export_output(output, args.out)
        print(f"[{experiment_id}: exported {len(written)} files to "
              f"{args.out}]\n")


if __name__ == "__main__":
    main()
