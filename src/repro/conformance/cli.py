"""``python -m repro.conformance`` — the conformance fuzzer CLI.

Examples::

    # the CI smoke budget
    python -m repro.conformance --seeds 25 --qubits 3

    # the acceptance run
    python -m repro.conformance --seeds 200

    # the nightly deep fuzz, with JSON report + reproducer artifacts
    python -m repro.conformance --seeds 1500 --qubits 5 \\
        --report conformance_report.json --artifacts shrunk/

Exit status is 0 when every check agreed and 1 otherwise; every
failure prints a shrunk reproducer (seed, check, deviation, circuit
drawing) and — with ``--artifacts`` — writes a standalone JSON file
per failure containing the seed, the QASM, the serialized circuit and
the measured deviation.  ``docs/conformance.md`` documents how to
replay one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.conformance.generator import GeneratorConfig
from repro.conformance.oracle import OracleConfig
from repro.conformance.runner import run_conformance

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.conformance`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description=(
            "Differential fuzzing of every repro execution path: "
            "random circuits through all backends x {fused, "
            "unfused} x {serial, batched}, IR passes, and I/O "
            "round-trips; failures are shrunk to minimal reproducers."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=50,
        help="number of seeded circuits to fuzz (default 50)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (default 0); seeds are fully reproducible",
    )
    parser.add_argument(
        "--qubits", type=int, default=4,
        help="maximum register width (default 4)",
    )
    parser.add_argument(
        "--depth", type=int, default=18,
        help="maximum ops per circuit (default 18)",
    )
    parser.add_argument(
        "--shots", type=int, default=192,
        help="shots per sampling check (default 192)",
    )
    parser.add_argument(
        "--no-noise", action="store_true",
        help="generate only noiseless circuits",
    )
    parser.add_argument(
        "--parametric", type=float, default=0.0, metavar="FRACTION",
        help=(
            "fraction of non-Clifford seeds generated with symbolic "
            "Parameter slots, exercising the bind()/sweep() oracle "
            "(default 0.0 — seed streams are unchanged)"
        ),
    )
    parser.add_argument(
        "--backends", type=str, default=None,
        help=(
            "comma-separated statevector backends to cross-check "
            "(default: all registered)"
        ),
    )
    parser.add_argument(
        "--skip", type=str, default=None,
        help=(
            "comma-separated check families to skip: density, "
            "trajectory, mps, stabilizer, passes, roundtrips, "
            "parametric"
        ),
    )
    parser.add_argument(
        "--shrink-budget", type=float, default=20.0,
        help="seconds the shrinker may spend per failure (default 20)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing seed",
    )
    parser.add_argument(
        "--report", type=Path, default=None,
        help="write the full JSON report to this path",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None,
        help="directory for one JSON reproducer file per failure",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run instrumented and print the observability profile",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-seed progress dots",
    )
    return parser


def _configs(args) -> tuple:
    generator = GeneratorConfig(
        max_qubits=max(args.qubits, 1),
        min_qubits=min(2, max(args.qubits, 1)),
        max_ops=max(args.depth, 1),
        min_ops=min(4, max(args.depth, 1)),
        noise_fraction=0.0 if args.no_noise else 0.25,
        parametric_fraction=min(max(args.parametric, 0.0), 1.0),
    )
    skip = {
        s.strip() for s in (args.skip or "").split(",") if s.strip()
    }
    backends = None
    if args.backends:
        backends = tuple(
            b.strip() for b in args.backends.split(",") if b.strip()
        )
    oracle = OracleConfig(
        backends=backends,
        sampling_shots=max(args.shots, 1),
        check_density="density" not in skip,
        check_trajectory="trajectory" not in skip,
        check_mps="mps" not in skip,
        check_stabilizer="stabilizer" not in skip,
        check_passes="passes" not in skip,
        check_roundtrips="roundtrips" not in skip,
        check_parametric="parametric" not in skip,
    )
    return generator, oracle


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    generator, oracle = _configs(args)

    def on_seed(seed, nb_failures):
        if args.quiet:
            return
        sys.stdout.write("x" if nb_failures else ".")
        if (seed - args.seed_start) % 50 == 49:
            sys.stdout.write(f" {seed - args.seed_start + 1}\n")
        sys.stdout.flush()

    inst = None
    if args.profile:
        from repro.observability import instrument

        ctx = instrument()
        inst = ctx.__enter__()
    try:
        report = run_conformance(
            seeds=args.seeds,
            seed_start=args.seed_start,
            generator=generator,
            oracle=oracle,
            shrink_budget=args.shrink_budget,
            fail_fast=args.fail_fast,
            on_seed=on_seed,
        )
    finally:
        if inst is not None:
            ctx.__exit__(None, None, None)

    if not args.quiet:
        sys.stdout.write("\n")
    print(report.summary())

    for failure in report.failures:
        print()
        print(failure.summary())
        print(
            f"  replay: python -m repro.conformance "
            f"--seeds 1 --seed-start {failure.seed}"
        )

    if args.report is not None:
        args.report.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"report written to {args.report}")
    if args.artifacts is not None and report.failures:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for failure in report.failures:
            name = "".join(
                c if c.isalnum() or c in "-_" else "_"
                for c in failure.check
            )
            path = args.artifacts / f"seed{failure.seed}_{name}.json"
            path.write_text(
                json.dumps(failure.to_dict(), indent=2) + "\n"
            )
        print(f"{len(report.failures)} reproducer(s) in {args.artifacts}")

    if inst is not None:
        print()
        print(inst.report())
    return 0 if report.ok else 1
