"""Command-line entry points.

Every subcommand is a pure function of its inputs, config, and seed, and
emits JSON so runs can be diffed. See the README for worked examples.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import DphgnnError, ParseError
from .experiments import IsoPoolSpec, iso_experiment, run_ablation
from .fileio import atomic_write
from .gwl import brute_force_isomorphic, gwl_test
from .hypergraph import Hypergraph, LabeledHypergraph, build_hypergraph, load_dataset, save_dataset
from .synthetic import generate_synthetic, parse_generator_spec
from .train import RunConfig, evaluate, train

__all__ = ["main"]


def _print_json(payload: dict, out: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with atomic_write(out) as fh:
            fh.write(text + "\n")
    print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _hypergraph_from_payload(payload: dict, source: str) -> Hypergraph:
    if not isinstance(payload, dict) or "num_nodes" not in payload or "hyperedges" not in payload:
        raise ParseError(f"{source}: expected an object with num_nodes and hyperedges")
    return build_hypergraph(payload["num_nodes"], payload["hyperedges"])


def _load_hypergraph(path: str, member: str | None = None) -> Hypergraph:
    """Accept a bare hypergraph JSON, a dataset file, or a pair file."""
    payload = _load_json(path)
    if member is not None:
        if member not in payload:
            raise ParseError(f"{path} has no {member!r} member")
        payload = payload[member]
    elif "a" in payload and "b" in payload and "num_nodes" not in payload:
        raise ParseError(f"{path} is a pair file; pass it to both --a and --b")
    return _hypergraph_from_payload(payload, path)


def _hypergraph_payload(hg: Hypergraph) -> dict:
    return {"num_nodes": hg.num_nodes, "hyperedges": [list(e) for e in hg.edges]}


def _cmd_generate(args) -> int:
    spec = parse_generator_spec(_load_json(args.spec))
    result = generate_synthetic(spec, args.seed)
    if isinstance(result, LabeledHypergraph):
        save_dataset(result, args.out)
        summary = {
            "out": args.out,
            "num_nodes": result.num_nodes,
            "num_edges": result.hypergraph.num_edges,
            "num_classes": result.num_classes,
        }
    else:
        a, b, is_iso = result
        payload = {
            "a": _hypergraph_payload(a),
            "b": _hypergraph_payload(b),
            "isomorphic": is_iso,
        }
        with atomic_write(args.out) as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        summary = {"out": args.out, "pair": True, "isomorphic": is_iso}
    _print_json(summary)
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    report = train(config, out_dir=args.out, cache_dir=args.cache)
    _print_json(report.to_dict())
    return 0


def _cmd_eval(args) -> int:
    data = load_dataset(args.data)
    result = evaluate(args.checkpoint, data, mask_name=args.mask, cache_dir=args.cache)
    _print_json(
        {
            "mask": args.mask,
            "mean_accuracy": result.mean_accuracy,
            "macro_f1": result.macro_f1,
            "micro_f1": result.micro_f1,
        }
    )
    return 0


def _cmd_iso_test(args) -> int:
    if args.b is None:
        hg_a = _load_hypergraph(args.a, member="a")
        hg_b = _load_hypergraph(args.a, member="b")
    elif args.a == args.b:
        hg_a = _load_hypergraph(args.a, member="a")
        hg_b = _load_hypergraph(args.b, member="b")
    else:
        hg_a = _load_hypergraph(args.a)
        hg_b = _load_hypergraph(args.b)
    result = gwl_test(hg_a, hg_b)
    payload = {
        "verdict": result.verdict.name,
        "rounds_used": result.rounds_used,
        "brute_force": None,
    }
    if args.brute_force:
        payload["brute_force"] = brute_force_isomorphic(hg_a, hg_b)
    _print_json(payload)
    return 0


def _cmd_ablate(args) -> int:
    config = RunConfig.from_json(args.config)
    rows = run_ablation(config, cache_dir=args.cache)
    _print_json(
        {
            "rows": [
                {
                    "name": row.name,
                    "flags": asdict(row.flags),
                    "final_loss": row.final_loss,
                    "metrics": row.metrics,
                }
                for row in rows
            ]
        },
        out=args.out,
    )
    return 0


def _cmd_iso_exp(args) -> int:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    pool = IsoPoolSpec(num_pairs=args.pairs)
    report = iso_experiment(pool, args.seed, config, cache_dir=args.cache)
    _print_json(report, out=args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dphgnn",
        description="Hypergraph representation learning: train, evaluate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run a synthetic generator")
    p.add_argument("--spec", required=True, help="JSON generator spec with a 'kind' field")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for checkpoint/report/loss.csv")
    p.add_argument("--cache", default=None, help="directory for structure caches")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mask", choices=("train", "val", "test"), default="test")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("iso-test", help="color-refinement isomorphism verdict")
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None, help="defaults to the 'b' member of --a")
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=_cmd_iso_test)

    p = sub.add_parser("ablate", help="train once per block-flag combination")
    p.add_argument("--config", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("iso-exp", help="isomorphism pool benchmark, both models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--config", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_iso_exp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DphgnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
