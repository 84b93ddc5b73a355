"""Command-line interface: every capability behind one seedable entry point.

Subcommands: states, bases, group, joint, simulate, classical-scan, verify.
All output is JSON on stdout (CSV only for per-round transcript files) and
byte-stable for a given command line; randomness is controlled by --seed,
which defaults to a fixed constant, never the clock.

Exit codes: 0 success, 1 verification/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

from .configuration import WittingConfiguration, bases_payload, check_int, states_payload
from .marking import exhaustive_scan, Marking
from .measurement import intercept_resend_distribution, joint_distribution
from .protocol import DEFAULT_SEED, PartyPolicy, run_session, transcript_csv_rows
from .symmetry import generate_group, group_payload
from .verify import run_checks


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in low..high (no upper bound when None)."""

    def integer(text: str) -> int:  # argparse reports "invalid integer value"
        value = int(text)
        try:
            check_int("value", value, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return integer


_TETRAD_ID = _int_in(0, 39)
_EVE_HELP = "intercept-resend attacker on Bob's channel, measuring in this tetrad"


def _policy(text: str) -> PartyPolicy:
    """argparse type: a policy spec; the seed is filled in from --seed."""
    try:
        return PartyPolicy.parse(text, DEFAULT_SEED)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid policy {text!r} ({exc})") from None


@contextlib.contextmanager
def _open_output(path: str | None, newline: str | None = None):
    """Open an output file before the run, so an unwritable path fails first.

    A failed open, write or close raises RuntimeError naming the path.
    """
    if path is None:
        yield None
        return
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_states(args: argparse.Namespace) -> int:
    _emit(states_payload(WittingConfiguration()))
    return 0


def _cmd_bases(args: argparse.Namespace) -> int:
    _emit(bases_payload(WittingConfiguration()))
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    config = WittingConfiguration()
    table = generate_group(config)
    _emit(group_payload(config, table))
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    config = WittingConfiguration()
    if args.eve is None:
        dist = joint_distribution(config, args.alice, args.bob)
    else:
        dist = intercept_resend_distribution(config, args.alice, args.bob, args.eve)
    _emit(
        {
            "alice": args.alice,
            "bob": args.bob,
            "eve": args.eve,
            "matrix": dist.as_strings(),
        }
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = WittingConfiguration()
    policy = replace(args.policy, seed=args.seed)
    with _open_output(args.transcript, newline="") as fh:
        on_block = None
        if fh is not None:  # rows are written block by block as the session runs

            def on_block(block) -> None:
                transcript_csv_rows(block, fh.write)

        transcript = run_session(
            config,
            args.protocol,
            args.rounds,
            policy,
            policy,
            eve_basis=args.eve,
            seed=args.seed,
            on_block=on_block,
        )
    _emit(transcript.to_json_dict())
    return 0


def _cmd_classical_scan(args: argparse.Namespace) -> int:
    config = WittingConfiguration()
    with _open_output(args.dump_max) as fh:
        result = exhaustive_scan(config)
        if fh is not None:
            json.dump(
                [list(Marking.from_index(i).choice) for i in result.maximizer_indices],
                fh,
            )
    _emit(result.to_json_dict())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(quick=args.quick)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittingqkd",
        description="Exact simulator for QKD on the 40-state Witting configuration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("states", help="dump the 40 states with both numberings").set_defaults(
        run=_cmd_states
    )
    sub.add_parser("bases", help="dump the 40 measurement tetrads").set_defaults(run=_cmd_bases)

    sub.add_parser("group", help="generate the symmetry group").set_defaults(run=_cmd_group)

    p_joint = sub.add_parser("joint", help="exact joint outcome distribution")
    p_joint.set_defaults(run=_cmd_joint)
    p_joint.add_argument("--alice", type=_TETRAD_ID, required=True, metavar="BASIS")
    p_joint.add_argument("--bob", type=_TETRAD_ID, required=True, metavar="BASIS")
    p_joint.add_argument("--eve", type=_TETRAD_ID, default=None, metavar="BASIS", help=_EVE_HELP)

    p_sim = sub.add_parser("simulate", help="run a two-party session")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument(
        "--protocol",
        choices=("naive", "two-step", "key-agreement"),
        required=True,
    )
    p_sim.add_argument("--rounds", type=_int_in(1), required=True)
    p_sim.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    p_sim.add_argument("--eve", type=_TETRAD_ID, default=None, metavar="BASIS", help=_EVE_HELP)
    p_sim.add_argument(
        "--policy", type=_policy, default="uniform", metavar="uniform|agreed|correlated:W"
    )
    p_sim.add_argument("--transcript", default=None, metavar="FILE")

    p_scan = sub.add_parser("classical-scan", help="scan all 4^10 markings")
    p_scan.set_defaults(run=_cmd_classical_scan)
    p_scan.add_argument("--dump-max", default=None, metavar="FILE")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument(
        "--quick", action="store_true", help="skip the group closures and the scan"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.run(args)
        finally:
            sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # exit cannot raise again, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
