"""Command-line front end.

Exit codes: 0 for success/pass, 1 for a negative but valid outcome
(infeasible, not a witness, nothing found, verification failed), 2 for
usage or input errors.  Output is deterministic: identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import core_graph, decomposition, flow_matching, group_kit, harem_engine
from .errors import HallHaremError, ParseError, SizeGuardError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, k_flag: int | None) -> tuple[core_graph.FiniteBipartiteGraph, int]:
    graph, k_header = core_graph.parse_bg(_read_text(path))
    k = k_flag if k_flag is not None else k_header
    if k is None:
        raise ValueError("no k given: pass --k or add a 'k <int>' header")
    return graph, k


def _parse_window(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:  # with no "..", hi is empty
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"window must look like 0..100, got {text!r}") from None
    if stop < start:
        raise ValueError(f"window {text!r} ends before it starts")
    return range(start, stop)


def _refuse(why: str, **given: object) -> None:
    """Reject each given flag that the chosen mode would not read, rather
    than ignore it; a flag not given is None (False for a switch)."""
    for flag, value in given.items():
        if value is not None and value is not False:
            raise ValueError(f"--{flag.replace('_', '-')} {why}")


def _max_ball(args: argparse.Namespace) -> int:
    return harem_engine.DEFAULT_MAX_BALL if args.max_ball is None else args.max_ball


def _parse_words(rank: int, text: str) -> list[group_kit.Word]:
    words = [group_kit.parse_word(rank, tok) for tok in text.split(",") if tok.strip()]
    if not words:
        raise ValueError(f"--set {text!r} names no word")
    return words


def cmd_finite(args: argparse.Namespace) -> int:
    graph, k = _load_graph(args.file, args.k)
    req = flow_matching.MatchingRequest.all_required(graph, k)
    matching = flow_matching.solve_harem(req)
    if args.brute_check:
        # None, for an infeasible request, differs from any matching.
        if next(iter(flow_matching.brute_force_harem(req)), None) != matching:
            print("BRUTE-CHECK MISMATCH", file=sys.stderr)
            return 2
    if matching is None:
        print("INFEASIBLE")
        return 1
    for a, star in sorted(matching.stars.items()):
        print(f"{a} -> {' '.join(str(b) for b in star)}")
    return 0


def _f2_spec(mode: str | None) -> decomposition.ActionGraphSpec:
    """The F2 action graph that --mode names; tight when it is not given."""
    if mode == "corollary":
        return decomposition.corollary_spec(2)
    return decomposition.tight_spec(2)


def _make_engine(args: argparse.Namespace) -> harem_engine.EngineState:
    if args.graph == "f2":
        spec = _f2_spec(args.mode)
        k = args.k if args.k is not None else 2
        # Every finite X of the tree has |R·X| >= 3|X| + 2, with equality on
        # balls, so K = R^n1 backs the identity witness iff k <= 3^n1 - 1.
        k_max = 3**spec.n1 - 1
        if k > k_max:
            raise ValueError(
                f"--k {k}: F2 in {spec.mode} mode backs the identity witness "
                f"only for k <= {k_max}"
            )
        oracle = decomposition.build_action_graph(spec)
        h = harem_engine.identity_witness()
    else:
        _refuse("needs --graph f2", mode=args.mode)
        graph, k = _load_graph(args.file, args.k)
        oracle = graph.as_oracle(name=args.file)
        h = harem_engine.vacuous_witness(len(graph.left_ids))
    return harem_engine.EngineState(oracle, k=k, h=h, max_ball_size=_max_ball(args))


def cmd_lazy(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    if args.left is not None:
        star = engine.match_left(args.left)
        print(f"L {args.left} -> {' '.join(str(b) for b in star)}")
    else:
        partner = engine.match_right(args.right)
        print(f"R {args.right} -> {partner}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    window = _parse_window(args.window)
    provider: decomposition.DecompProvider
    if args.classic:
        _refuse("cannot be used with --classic", mode=args.mode, max_ball=args.max_ball)
        provider = decomposition.ClassicF2Decomp()
    else:
        provider = decomposition.ParadoxDecomp(
            _f2_spec(args.mode), max_ball_size=_max_ball(args)
        )
    out = "\n".join(decomposition.tsv_rows(provider, window)) + "\n"
    if args.out == "-":
        sys.stdout.write(out)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0


def _parse_matching(text: str) -> flow_matching.HaremMatching:
    stars: dict[int, tuple[int, ...]] = {}
    for _, line in core_graph._data_lines(text):
        head, sep, tail = line.partition("->")
        try:
            if not sep:
                raise ValueError
            a, star = int(head), tuple(map(int, tail.split()))
        except ValueError:
            raise ValueError(f"bad matching line: {line!r}") from None
        if a in stars:
            raise ValueError(f"left index {a} listed twice in matching")
        stars[a] = star
    return flow_matching.HaremMatching(stars=stars)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.what == "matching":
        _refuse("needs --what decomposition", window=args.window_size, classic=args.classic,
                classic_defect=args.classic_defect, steps=args.steps, max_ball=args.max_ball)
        if args.file is None or args.matching is None:
            raise ValueError("matching verification needs --file and --matching")
        graph, k = _load_graph(args.file, args.k)
        matching = _parse_matching(_read_text(args.matching))
        report = flow_matching.verify_matching(
            flow_matching.MatchingRequest.all_required(graph, k), matching
        )
        if report.ok:
            print("PASS")
            return 0
        print("FAIL")
        for v in report.violations:
            print(f"  {v}")
        return 1
    _refuse("needs --what matching", file=args.file, k=args.k, matching=args.matching)
    if args.classic:
        _refuse("cannot be used with --classic", steps=args.steps, max_ball=args.max_ball)
        window = 1000 if args.window_size is None else args.window_size
        if window < 1:
            raise ValueError(f"--window must be >= 1, got {window}")
        classic = decomposition.ClassicF2Decomp()
        classify_a = classic.a_member
        if args.classic_defect is not None:
            if not 0 <= args.classic_defect < window:
                raise ValueError(
                    f"--classic-defect must lie in the window 0..{window}, "
                    f"got {args.classic_defect}"
                )
            classify_a = decomposition.planted_defect_classifier(
                classic.a_member, args.classic_defect, classic.k_set.elements[-1]
            )
        report = decomposition.verify_decomposition(
            classify_a, classic.b_member, classic.k_set, window
        )
    else:
        _refuse("needs --classic", window=args.window_size, classic_defect=args.classic_defect)
        steps = 2 if args.steps is None else args.steps
        if steps < 1:
            raise ValueError(f"--steps must be >= 1, got {steps}")
        spec = decomposition.tight_spec(2)
        decomp = decomposition.ParadoxDecomp(spec, max_ball_size=_max_ball(args))
        decomp.run_steps(steps)
        report = decomposition.verify_engine_window(decomp)
    if report.ok:
        print(f"PASS ({report.checked} indices)")
        return 0
    print(f"FAIL ({len(report.violations)} violations)")
    for v in report.violations:
        print(f"  {v}")
    return 1


def cmd_wbt(args: argparse.Namespace) -> int:
    words = _parse_words(args.rank, args.set)
    pair = group_kit.wbt_free(words)
    if pair is None:
        print("NOT-WITNESS")
        return 1
    print(f"WITNESS {pair[0]} {pair[1]}")
    return 0


def cmd_folner(args: argparse.Namespace) -> int:
    words = _parse_words(args.rank, args.set)
    r = group_kit.GeneratorSet.symmetrized(args.rank, words)
    if args.ground_radius < 0:
        raise ValueError("radius must be >= 0")
    # The ball one level at a time, stopping past the search's cap, so that
    # folner_search refuses a huge radius as soon as a small one.
    ground: list[int] = []
    for _, level in zip(range(args.ground_radius + 1), group_kit._levels(r, 0)):
        ground.extend(level)
        if len(ground) > group_kit.FOLNER_MAX_GROUND:
            break
    found = group_kit.folner_search(words, args.n, ground, args.max_size)
    if found is None:
        print("NONE")
        return 1
    e = group_kit.enumeration(args.rank)
    print(",".join(str(e.index_to_word(i)) for i in sorted(found)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallharem",
        description="Finite and lazy perfect (1,k)-matchings, free-group "
        "doubling decompositions, and related searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("finite", help="solve a finite instance from a .bg file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--brute-check", action="store_true")
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("lazy", help="answer one match query lazily")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", choices=["f2"])
    group.add_argument("--file")
    p.add_argument("--k", type=int, default=None)
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--left", type=int)
    side.add_argument("--right", type=int)
    p.add_argument("--mode", choices=["tight", "corollary"], default=None)
    p.add_argument("--max-ball", type=int, default=None)
    p.set_defaults(func=cmd_lazy)

    p = sub.add_parser("decompose", help="dump a decomposition window as TSV")
    p.add_argument("--window", required=True, help="half-open range, e.g. 0..100")
    p.add_argument("--out", default="-")
    p.add_argument("--classic", action="store_true")
    p.add_argument("--mode", choices=["tight", "corollary"], default=None)
    p.add_argument("--max-ball", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition or a matching")
    p.add_argument("--what", choices=["decomposition", "matching"], required=True)
    p.add_argument("--window", dest="window_size", type=int, default=None)
    p.add_argument("--classic", action="store_true")
    p.add_argument("--classic-defect", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matching")
    p.add_argument("--max-ball", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wbt", help="decide whether a word set is a paradox witness")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated words, e.g. a,b")
    p.set_defaults(func=cmd_wbt)

    p = sub.add_parser("folner", help="search for a small set with low boundary ratio")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ground-radius", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=cmd_folner)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, SizeGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HallHaremError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
