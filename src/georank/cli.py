"""Command-line pipeline driver.

Subcommands cover the full flow: synth/ingest -> retrieve -> caption/embed ->
build-samples -> train -> rerank -> eval/compare, plus stability and
gradcheck. Values resolve as: command-line flag, then config file
(``--config`` or ``GEOVLM_CONFIG``), then the default of the config dataclass
that takes the value. Exit codes: 0 success, 1 validation/usage error, 2 I/O
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from . import cvlang, evaluator, geostore, reranker, retriever, trainer
from .geostore import GeostoreError, Store, StoreManifest, SynthConfig
from .reranker import RerankerConfig
from .trainer import TrainConfig

CONFIG_ENV = "GEOVLM_CONFIG"


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: '{text}'")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(",") if x.strip() != "")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(",") if x.strip() != "")


# Every setting: its config-file key and how its value parses. A tuple is the
# values the setting may take. Each subcommand reads the keys COMMAND_KEYS
# lists and has one flag per key ("--" + key, "_" as "-"); a setting given by
# neither flag nor file keeps the default its config dataclass declares.
CONFIG_SCHEMA = {
    "store": str,
    "k": int,
    "seed": int,
    "locations": int,
    "group_size": int,
    "image_dim": int,
    "text_dim": int,
    "image_noise": float,
    "group_spread": float,
    "text_margin": float,
    "queries_per_location": int,
    "epochs": int,
    "lr": float,
    "margin": float,
    "optimizer": trainer.OPTIMIZERS,
    "batch_size": int,
    "shuffle_seed": int,
    "val_split": float,
    "loss_on": trainer.LOSS_ON,
    "grad_clip": float,
    "latent_dim": int,
    "aligner_layers": int,
    "aligner_hidden": int,
    "ln_epsilon": float,
    "init_seed": int,
    "shared_projections": _bool,
    "ks": _int_list,
    "thresholds": _float_list,
    "earth_radius_km": float,
    "endpoint": str,
    "model": str,
}

_EVAL_KEYS = ("store", "ks", "thresholds", "earth_radius_km")
_ENDPOINT_KEYS = ("endpoint", "model", "text_dim")
COMMAND_KEYS = {
    "synth": ("seed", "locations", "group_size", "image_dim", "text_dim", "image_noise", "group_spread",
              "text_margin", "queries_per_location"),
    "ingest": (),
    "retrieve": ("store", "k"),
    "caption": (),
    "embed": _ENDPOINT_KEYS,
    "build-samples": ("store",),
    "train": ("store", "epochs", "lr", "margin", "optimizer", "batch_size", "shuffle_seed", "val_split", "loss_on",
              "grad_clip", "latent_dim", "aligner_layers", "aligner_hidden", "ln_epsilon", "init_seed",
              "shared_projections"),
    "rerank": ("store",),
    "eval": _EVAL_KEYS,
    "compare": _EVAL_KEYS,
    "stability": _ENDPOINT_KEYS,
    "gradcheck": ("seed", "margin", "loss_on"),
}

# keys whose config-dataclass field is named otherwise
_FIELD_NAMES = {"locations": "n_locations", "thresholds": "thresholds_km", "endpoint": "url"}


def load_config_file(path: str | Path) -> dict:
    """The settings of a key=value config file, parsed; an unknown key or a bad
    value is a ValueError (``IngestError``) naming the file and line."""
    values = {}

    def put(key: str, value: str) -> None:
        parse = CONFIG_SCHEMA[key]
        if isinstance(parse, tuple) and value not in parse:
            raise ValueError(f"'{value}' is not one of {', '.join(parse)}")
        values[key] = value if isinstance(parse, tuple) else parse(value)

    geostore.read_key_values(path, put)
    return values


def _settings(args: argparse.Namespace) -> dict:
    """The subcommand's settings given by flag or else by config file (``--config``
    or $GEOVLM_CONFIG); a key given by neither is absent."""
    path = args.config or os.environ.get(CONFIG_ENV)
    file_values = load_config_file(path) if path else {}
    given = {}
    for key in COMMAND_KEYS[args.command]:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = flag
        elif key in file_values:
            given[key] = file_values[key]
    return given


def _require(settings: dict, key: str):
    if key not in settings:
        raise ValueError(f"missing required setting '{key}' (flag, config file, or ${CONFIG_ENV})")
    return settings[key]


def _build(cls, settings: dict, **fixed):
    """A ``cls`` config from the settings that name its fields, and ``fixed``;
    every other field keeps its default."""
    names = {f.name for f in dataclasses.fields(cls)}
    given = {_FIELD_NAMES.get(k, k): v for k, v in settings.items()}
    return cls(**{n: v for n, v in given.items() if n in names} | fixed)


def _pick(settings: dict, *keys) -> dict:
    return {k: settings[k] for k in keys if k in settings}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _RefCoords(Mapping):
    """Read-only id -> GeoCoord view of a store's reference coordinates. Each
    coordinate is built from its row of the column when first looked up, so
    a report over a few rankings builds a few, not one per reference."""

    def __init__(self, store: Store):
        self.refs = store.refs
        self.built: dict = {}

    def __getitem__(self, rid: str):
        coord = self.built.get(rid)
        if coord is None:
            coord = self.refs.coord_of(rid)
            if coord is None:
                raise KeyError(rid)
            self.built[rid] = coord
        return coord

    def __iter__(self):
        return iter(self.refs.ids)

    def __len__(self):
        return len(self.refs.ids)


def _store_coords(store: Store) -> Mapping | None:
    """Every reference's coordinate, or None when some reference has none."""
    return _RefCoords(store) if store.refs.has_coord.all() else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    settings = _settings(args)
    store, groups = geostore.generate_synthetic(_build(SynthConfig, settings), settings.get("seed", 0))
    store.save(args.out)
    geostore.save_groups(groups, Path(args.out) / geostore.GROUPS_FILE)
    print(f"synthetic store: {len(store.ref_ids)} references, {len(store.query_ids)} queries -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    manifest = StoreManifest.read(Path(args.manifest))
    store = geostore.ingest(
        args.out,
        manifest,
        args.refs_emb,
        ref_captions=args.refs_captions,
        ref_coords=args.refs_coords,
        ref_text_embeddings=args.refs_text_emb,
        query_embeddings=args.queries_emb,
        query_captions=args.queries_captions,
        query_coords=args.queries_coords,
        query_text_embeddings=args.queries_text_emb,
        query_truth=args.truth,
    )
    print(f"ingested {len(store.ref_ids)} references, {len(store.query_ids)} queries -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    settings = _settings(args)
    store = Store.load(_require(settings, "store"))
    k = settings.get("k", 10)
    rankings = retriever.rank_store_queries(store, k)
    retriever.save_rankings(rankings, args.out)
    print(f"ranked {len(rankings)} queries at k={k} -> {args.out}")
    return 0


def cmd_caption(args) -> int:
    bank = cvlang.load_question_bank(args.bank)
    sheets = cvlang.sheets_from_jsonl(args.sheets)
    problems = []
    rendered = []
    for sheet in sheets:
        violations = cvlang.validate_sheet(sheet, bank)
        if violations:
            problems.append(f"{sheet.image_id}: " + "; ".join(violations))
        else:
            rendered.append({"description": cvlang.render_description(sheet, bank), "id": sheet.image_id})
    if problems:
        raise ValueError("invalid answer sheets:\n" + "\n".join(problems))
    geostore.write_jsonl(rendered, args.out)
    print(f"rendered {len(rendered)} descriptions -> {args.out}")
    return 0


def _text_entry(rec: dict) -> tuple[str, str]:
    text = rec.get("description", rec.get("caption", rec.get("text")))
    rid = rec.get("id", rec.get("image_id"))
    if not isinstance(rid, str) or not isinstance(text, str):
        raise ValueError("need 'id' (or 'image_id') and one of description/caption/text")
    return rid, text


def _read_texts(path: str | Path) -> list[tuple[str, str]]:
    return geostore.load_jsonl(path, _text_entry, "text record")


def cmd_embed(args) -> int:
    endpoint = _build(cvlang.EmbedEndpointConfig, _settings(args))
    pairs = _read_texts(args.texts)
    vectors = cvlang.embed_texts([t for _, t in pairs], endpoint)
    if args.out:
        geostore.write_jsonl(({"embedding": [float(x) for x in vec], "id": rid} for (rid, _), vec in zip(pairs, vectors)),
                             args.out)
        print(f"embedded {len(pairs)} texts (dim {endpoint.text_dim}) -> {args.out}")
    if args.attach:
        side = args.side or "refs"
        count = geostore.attach_text(args.attach, side, [rid for rid, _ in pairs], vectors)
        print(f"attached {count} text embeddings to {args.attach} ({side})")
    return 0


def cmd_build_samples(args) -> int:
    store_dir = _require(_settings(args), "store")
    store = Store.load(store_dir)
    rankings = retriever.load_rankings(args.rankings)
    semipositives = None
    if args.exclude_semipositives:
        groups_path = args.groups or Path(store_dir) / geostore.GROUPS_FILE
        groups = geostore.load_groups(groups_path)
        semipositives = geostore.semipositive_map(groups, store)
    queries = [store.query(qid) for qid in store.query_ids]
    samples, skipped = trainer.build_training_samples(queries, rankings, semipositives)
    trainer.save_samples(samples, args.out)
    print(f"built {len(samples)} training samples ({skipped} skipped: positive outside candidates) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    settings = _settings(args)
    store = Store.load(_require(settings, "store"))
    samples = trainer.load_samples(args.samples)
    rr_config = _build(RerankerConfig, settings, image_dim=store.manifest.image_dim, text_dim=store.manifest.text_dim)
    tr_config = _build(TrainConfig, settings)
    out = Path(args.out)
    params, report = trainer.train(samples, store, rr_config, tr_config, checkpoint_dir=out,
                                   **_pick(settings, "val_split"))
    report.write_csv(out / "train_report.csv")
    report.write_jsonl(out / "train_report.jsonl")
    last = report.epochs[-1] if report.epochs else None
    if last is not None and last.val_r1 is not None:
        print(f"trained {tr_config.epochs} epochs; final val R@1={last.val_r1:.3f} R@5={last.val_r5:.3f} -> {out}")
    else:
        print(f"trained {tr_config.epochs} epochs -> {out}")
    return 0


def cmd_rerank(args) -> int:
    store = Store.load(_require(_settings(args), "store"))
    params = reranker.load_params(args.checkpoint)
    rankings = retriever.load_rankings(args.rankings)
    # per query, not batched: a stacked GEMM rounds each row differently, and the scores must equal reranker.rerank's
    out = [reranker.rerank(store.query(r.query_id), r, params, store) for r in rankings]
    retriever.save_rankings(out, args.out)
    print(f"reranked {len(out)} rankings -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    settings = _settings(args)
    store = Store.load(_require(settings, "store"))
    rankings = retriever.load_rankings(args.rankings)
    coords = _store_coords(store)
    metrics = evaluator.evaluate_rankings(rankings, store.ground_truth, _build(evaluator.EvalConfig, settings), coords)
    evaluator.single_run_files(metrics, args.out)
    print(f"evaluated {metrics['query_count']} rankings -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    settings = _settings(args)
    store = Store.load(_require(settings, "store"))
    baseline = retriever.load_rankings(args.baseline)
    reranked = retriever.load_rankings(args.reranked)
    report = evaluator.compare_rankings(baseline, reranked, store.ground_truth, _build(evaluator.EvalConfig, settings),
                                        _store_coords(store))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "report.json")
    report.write_csv(out / "report.csv")
    report.write_svg(out / "report.svg")
    deltas = ", ".join(f"ΔR@{k}={v['delta']:+.4f}" for k, v in report.recall.items())
    print(f"compared {report.query_count} queries ({report.skipped_query_count} without positive in candidates): "
          f"{deltas} -> {out}")
    return 0


def cmd_stability(args) -> int:
    endpoint = _build(cvlang.EmbedEndpointConfig, _settings(args))
    corpus_a = dict(_read_texts(args.corpus_a))
    corpus_b = dict(_read_texts(args.corpus_b))
    # every vector must be as wide as the first of --emb-a, or text_dim if either side is embedded here
    width = None if args.emb_a and args.emb_b else endpoint.text_dim

    def embeddings_for(path, corpus):
        ids = sorted(corpus)
        if not path:
            return dict(zip(ids, cvlang.embed_texts([corpus[i] for i in ids], endpoint)))
        vectors = {}

        def put(row: int, rec: dict) -> None:
            nonlocal width
            vec = geostore.embedding_of(rec, width)
            if not (np.isfinite(vec).all() and vec.any()):
                raise ValueError("embedding has a NaN/Inf value or zero norm")
            vectors[rec["id"]], width = vec, len(vec)

        geostore.read_rows(path, "embedding", put, {i: row for row, i in enumerate(ids)})
        return vectors

    report = cvlang.stability_report(corpus_a, corpus_b, embeddings_for(args.emb_a, corpus_a),
                                     embeddings_for(args.emb_b, corpus_b))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["reference_context"] = evaluator.REFERENCE_CONTEXT["description_stability"]
    payload["reference_note"] = evaluator.REFERENCE_CONTEXT["note"]
    geostore.write_lines([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)], out / "report.json")
    geostore.write_lines(["metric,value"] + [f"{k},{v}" for k, v in report.to_dict().items()], out / "report.csv")
    print(
        f"stability over {report.count} pairs: cosine={report.mean_cosine:.4f} "
        f"jaccard={report.mean_jaccard:.4f} length={report.mean_length:.2f}±{report.std_length:.2f} -> {out}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    settings = _settings(args)
    seed = settings.get("seed", 1)
    err = trainer.run_gradcheck(seed, **_pick(settings, "margin", "loss_on"))
    print(f"gradcheck seed={seed}: max relative error = {err:.3e} (tolerance 1e-4)")
    return 0 if err <= 1e-4 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="georank", description="Cross-view retrieval and reranking pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help=f"key=value config file (default ${CONFIG_ENV})")
        for key in COMMAND_KEYS[name]:
            parse = CONFIG_SCHEMA[key]
            if parse is _bool:  # an on/off pair, added by hand
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(parse, tuple):
                p.add_argument(flag, choices=parse)
            else:
                p.add_argument(flag, type=parse)
        return p

    p = add("synth", cmd_synth, "generate a deterministic synthetic store")
    p.add_argument("--out", required=True)

    p = add("ingest", cmd_ingest, "validate raw JSONL inputs and build a store")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--refs-emb", dest="refs_emb", required=True)
    p.add_argument("--refs-captions", dest="refs_captions")
    p.add_argument("--refs-coords", dest="refs_coords")
    p.add_argument("--refs-text-emb", dest="refs_text_emb")
    p.add_argument("--queries-emb", dest="queries_emb")
    p.add_argument("--queries-captions", dest="queries_captions")
    p.add_argument("--queries-coords", dest="queries_coords")
    p.add_argument("--queries-text-emb", dest="queries_text_emb")
    p.add_argument("--truth")

    p = add("retrieve", cmd_retrieve, "rank top-k references for every store query")
    p.add_argument("--out", required=True)

    p = add("caption", cmd_caption, "validate answer sheets and render descriptions")
    p.add_argument("--sheets", required=True)
    p.add_argument("--bank", default=None, help="question bank JSON (default: packaged bank)")
    p.add_argument("--out", required=True)

    p = add("embed", cmd_embed, "embed descriptions via endpoint or offline mock")
    p.add_argument("--texts", required=True)
    p.add_argument("--out")
    p.add_argument("--attach", help="store directory to attach embeddings to")
    p.add_argument("--side", choices=("refs", "queries"))

    p = add("build-samples", cmd_build_samples, "turn rankings into training samples")
    p.add_argument("--rankings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exclude-semipositives", dest="exclude_semipositives", action="store_true")
    p.add_argument("--groups", help="groups.jsonl (default: <store>/groups.jsonl)")

    p = add("train", cmd_train, "train the reranking scorer")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shared-projections", dest="shared_projections", action="store_const", const=True, default=None)
    p.add_argument("--separate-projections", dest="shared_projections", action="store_const", const=False)

    p = add("rerank", cmd_rerank, "reorder rankings with a trained checkpoint")
    p.add_argument("--rankings", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, "metrics for one ranking set")
    p.add_argument("--rankings", required=True)
    p.add_argument("--out", required=True)

    p = add("compare", cmd_compare, "baseline vs reranked comparison report")
    p.add_argument("--baseline", required=True)
    p.add_argument("--reranked", required=True)
    p.add_argument("--out", required=True)

    p = add("stability", cmd_stability, "description stability metrics between two runs")
    p.add_argument("--corpus-a", dest="corpus_a", required=True)
    p.add_argument("--corpus-b", dest="corpus_b", required=True)
    p.add_argument("--emb-a", dest="emb_a")
    p.add_argument("--emb-b", dest="emb_b")
    p.add_argument("--out", required=True)

    add("gradcheck", cmd_gradcheck, "verify analytic gradients against finite differences")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, GeostoreError, cvlang.EmbedServiceError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
