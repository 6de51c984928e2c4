import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from georank import cvlang, evaluator, geostore, reranker, retriever, trainer
from georank.cli import COMMAND_KEYS, CONFIG_SCHEMA, build_parser, load_config_file, main
from georank.geostore import Store, StoreManifest, SynthConfig, store_digest
from georank.reranker import RerankerConfig
from georank.retriever import load_rankings

GOLDEN = Path(__file__).parent / "golden"

SUBCOMMANDS = [
    "synth", "ingest", "retrieve", "caption", "embed", "build-samples",
    "train", "rerank", "eval", "compare", "stability", "gradcheck",
]


def synth_args(out, locations=12, group_size=3, seed=0):
    return [
        "synth", "--out", str(out), "--locations", str(locations), "--group-size", str(group_size),
        "--image-dim", "8", "--text-dim", "8", "--seed", str(seed),
    ]


@pytest.fixture
def mini_store(tmp_path):
    out = tmp_path / "store"
    assert main(synth_args(out)) == 0
    return out


# ---------------------------------------------------------------------------
# usage and exit codes
# ---------------------------------------------------------------------------

def test_help_on_every_subcommand(capsys):
    for name in SUBCOMMANDS:
        assert main([name, "--help"]) == 0
        assert "usage" in capsys.readouterr().out


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["gradcheck", "--frob", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["retrieve", "--store", str(tmp_path / "nope"), "--out", str(tmp_path / "r.jsonl")]) == 2
    assert "io error" in capsys.readouterr().err


def test_validation_error_exits_1(tmp_path, mini_store, capsys):
    bad = tmp_path / "rankings.jsonl"
    bad.write_text('{"query_id": "ghost", "entries": [["r00", 1.0]]}\n')
    assert main(["eval", "--store", str(mini_store), "--rankings", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "ghost" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config precedence
# ---------------------------------------------------------------------------

def test_config_precedence_flag_beats_file_beats_default(tmp_path, mini_store, monkeypatch):
    out = tmp_path / "r.jsonl"
    # built-in default: k=10
    assert main(["retrieve", "--store", str(mini_store), "--out", str(out)]) == 0
    assert len(load_rankings(out)[0].entries) == 10

    cfg = tmp_path / "georank.cfg"
    cfg.write_text("k=7\n")
    monkeypatch.setenv("GEOVLM_CONFIG", str(cfg))
    assert main(["retrieve", "--store", str(mini_store), "--out", str(out)]) == 0
    assert len(load_rankings(out)[0].entries) == 7

    assert main(["retrieve", "--store", str(mini_store), "--out", str(out), "--k", "5"]) == 0
    assert len(load_rankings(out)[0].entries) == 5


def test_config_file_flag_overrides_env(tmp_path, mini_store, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("k=7\n")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("k=3\n")
    monkeypatch.setenv("GEOVLM_CONFIG", str(env_cfg))
    out = tmp_path / "r.jsonl"
    assert main(["retrieve", "--config", str(flag_cfg), "--store", str(mini_store), "--out", str(out)]) == 0
    assert len(load_rankings(out)[0].entries) == 3


def test_unknown_config_key_rejected(tmp_path, mini_store, capsys):
    cfg = tmp_path / "georank.cfg"
    cfg.write_text("k=7\nwibble=3\n")
    out = tmp_path / "r.jsonl"
    assert main(["retrieve", "--config", str(cfg), "--store", str(mini_store), "--out", str(out)]) == 1
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["config", "manifest"])
@pytest.mark.parametrize("line,problem", [(b"KEY=\xff", "byte 0xff is not UTF-8"), (b"KEY 3", "expected key=value"),
                                          (b"KEY=x", "bad value for 'KEY'")])
def test_key_value_file_fault_names_file_and_line(tmp_path, reader, line, problem):
    path = tmp_path / "settings.txt"
    key = b"k" if reader == "config" else b"image_dim"
    path.write_bytes(b"# settings\n" + line.replace(b"KEY", key) + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: {problem.replace('KEY', key.decode())}")):
        (load_config_file if reader == "config" else StoreManifest.read)(path)


def test_store_setting_from_config_file(tmp_path, mini_store):
    cfg = tmp_path / "georank.cfg"
    cfg.write_text(f"store={mini_store}\n")
    out = tmp_path / "r.jsonl"
    assert main(["retrieve", "--config", str(cfg), "--out", str(out)]) == 0


def test_missing_store_setting_is_validation_error(tmp_path, capsys):
    assert main(["retrieve", "--out", str(tmp_path / "r.jsonl")]) == 1
    assert "store" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every declared setting, as flag and from a config file
# ---------------------------------------------------------------------------

class _Reached(Exception):
    """Raised in place of the call a subcommand hands its settings to; carries
    that call's arguments, defaults applied."""


# the call each subcommand hands its settings to (build-samples and rerank read only the store)
_CONSUMERS = {
    "synth": (geostore, "generate_synthetic"),
    "retrieve": (retriever, "rank_store_queries"),
    "embed": (cvlang, "embed_texts"),
    "train": (trainer, "train"),
    "eval": (evaluator, "evaluate_rankings"),
    "compare": (evaluator, "compare_rankings"),
    "stability": (cvlang, "embed_texts"),
    "gradcheck": (trainer, "run_gradcheck"),
}
# keys whose config-dataclass field is named otherwise
_FIELD = {"locations": "n_locations", "thresholds": "thresholds_km", "endpoint": "url"}
# (file text, its value, flag arguments, their value) per kind of key; the store key is apart
_EXAMPLES = {
    int: ("7", 7, ["9"], 9),
    float: ("0.25", 0.25, ["0.375"], 0.375),
    str: ("mock:file", "mock:file", ["mock:flag"], "mock:flag"),
    "ks": ("3,4", (3, 4), ["2,6"], (2, 6)),
    "thresholds": ("0.25,1", (0.25, 1.0), ["2"], (2.0,)),
    "shared_projections": ("false", False, [], True),
}


def _examples(key, default):
    parse = CONFIG_SCHEMA[key]
    if isinstance(parse, tuple):  # one of a few values: the file picks one that is not the default
        file_value = next(v for v in parse if v != default)
        flag_value = next(v for v in parse if v != file_value)
        return file_value, file_value, [flag_value], flag_value
    return _EXAMPLES[parse if parse in (int, float, str) else key]


@pytest.fixture
def settings_inputs(tmp_path, mini_store):
    rankings, samples, texts = tmp_path / "rankings.jsonl", tmp_path / "samples.jsonl", tmp_path / "texts.jsonl"
    assert main(["retrieve", "--store", str(mini_store), "--k", "4", "--out", str(rankings)]) == 0
    assert main(["build-samples", "--store", str(mini_store), "--rankings", str(rankings), "--out", str(samples)]) == 0
    texts.write_text('{"id": "a", "description": "a road"}\n')
    out = str(tmp_path / "out")
    return {
        "synth": ["--out", out],
        "retrieve": ["--out", out],
        "embed": ["--texts", str(texts), "--out", out],
        "build-samples": ["--rankings", str(rankings), "--out", out],
        "train": ["--samples", str(samples), "--out", out],
        "rerank": ["--rankings", str(rankings), "--checkpoint", out, "--out", out],
        "eval": ["--rankings", str(rankings), "--out", out],
        "compare": ["--baseline", str(rankings), "--reranked", str(rankings), "--out", out],
        "stability": ["--corpus-a", str(texts), "--corpus-b", str(texts), "--out", out],
        "gradcheck": [],
    }


def _stop_at(monkeypatch, module, name):
    signature = inspect.signature(getattr(module, name))

    def reached(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        raise _Reached(bound.arguments)

    monkeypatch.setattr(module, name, reached)


def _handed_on(argv) -> dict:
    """What the subcommand passed on: each argument, and each field of each config dataclass."""
    with pytest.raises(_Reached) as exc:
        main(argv)
    values = {}
    for name, value in exc.value.args[0].items():
        values.update(dataclasses.asdict(value) if dataclasses.is_dataclass(value) else {name: value})
    return values


@pytest.mark.parametrize("command", [c for c in COMMAND_KEYS if COMMAND_KEYS[c]])
def test_every_setting_works_as_flag_and_file_with_flag_over_file_over_default(
        command, settings_inputs, mini_store, tmp_path, monkeypatch):
    monkeypatch.delenv("GEOVLM_CONFIG", raising=False)
    cfg = tmp_path / "georank.cfg"
    argv = [command, "--config", str(cfg)] + settings_inputs[command]
    if "store" in COMMAND_KEYS[command]:
        with monkeypatch.context() as patch:
            _stop_at(patch, Store, "load")
            cfg.write_text(f"store={tmp_path / 'other'}\n")
            assert _handed_on(argv)["store_dir"] == str(tmp_path / "other")
            assert _handed_on(argv + ["--store", str(mini_store)])["store_dir"] == str(mini_store)
        argv += ["--store", str(mini_store)]
    keys = [k for k in COMMAND_KEYS[command] if k != "store"]
    if not keys:
        return
    _stop_at(monkeypatch, *_CONSUMERS[command])
    cfg.write_text("")
    defaults = _handed_on(argv)
    for key in keys:
        field = _FIELD.get(key, key)
        file_text, file_value, flag_args, flag_value = _examples(key, defaults[field])
        assert file_value != defaults[field] and flag_value != file_value
        cfg.write_text(f"{key}={file_text}\n")
        assert _handed_on(argv)[field] == file_value, f"{key} from the config file"
        flag = ["--" + key.replace("_", "-")] + flag_args
        assert _handed_on(argv + flag)[field] == flag_value, f"--{key} over the config file"


def test_settings_left_unset_keep_the_config_dataclass_defaults(settings_inputs, mini_store, monkeypatch):
    monkeypatch.delenv("GEOVLM_CONFIG", raising=False)
    manifest = Store.load(mini_store).manifest
    expected = {
        "synth": [SynthConfig()],
        "train": [RerankerConfig(image_dim=manifest.image_dim, text_dim=manifest.text_dim), trainer.TrainConfig()],
        "eval": [evaluator.EvalConfig()],
        "compare": [evaluator.EvalConfig()],
        "embed": [cvlang.EmbedEndpointConfig()],
        "stability": [cvlang.EmbedEndpointConfig()],
    }
    for command, configs in expected.items():
        argv = [command] + settings_inputs[command]
        if "store" in COMMAND_KEYS[command]:
            argv += ["--store", str(mini_store)]
        with monkeypatch.context() as patch, pytest.raises(_Reached) as exc:
            _stop_at(patch, *_CONSUMERS[command])
            main(argv)
        assert [v for v in exc.value.args[0].values() if dataclasses.is_dataclass(v)] == configs, command


def test_separate_projections_flag_and_train_batch_size_stay_where_they_belong(
        settings_inputs, mini_store, tmp_path, monkeypatch):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("batch_size=7\nshared_projections=true\n")
    monkeypatch.setenv("GEOVLM_CONFIG", str(cfg))
    _stop_at(monkeypatch, cvlang, "embed_texts")
    assert _handed_on(["embed"] + settings_inputs["embed"])["batch_size"] == cvlang.EmbedEndpointConfig().batch_size
    _stop_at(monkeypatch, trainer, "train")
    train = _handed_on(["train", "--store", str(mini_store), "--separate-projections"] + settings_inputs["train"])
    assert train["batch_size"] == 7 and train["shared_projections"] is False


def test_every_setting_is_read_by_some_subcommand():
    assert set(CONFIG_SCHEMA) == {key for keys in COMMAND_KEYS.values() for key in keys}


@pytest.mark.parametrize("command,flag", [("train", "--optimizer"), ("train", "--loss-on"), ("gradcheck", "--loss-on")])
def test_invalid_choice_exits_1_naming_value(command, flag, capsys, tmp_path):
    extra = ["--samples", "s", "--out", str(tmp_path)] if command == "train" else []
    assert main([command, flag, "bogus"] + extra) == 1
    assert "bogus" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')}=bogus\n")
    assert main([command, "--config", str(cfg)] + extra) == 1
    assert "bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def test_synth_deterministic_across_runs(tmp_path):
    assert main(synth_args(tmp_path / "a", seed=3)) == 0
    assert main(synth_args(tmp_path / "b", seed=3)) == 0
    assert store_digest(tmp_path / "a") == store_digest(tmp_path / "b")


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_ingest_cli_roundtrip(tmp_path):
    refs = tmp_path / "refs.jsonl"
    with open(refs, "w") as fh:
        for i in range(3):
            fh.write(json.dumps({"id": f"a{i}", "embedding": [float(i + 1), 0.5]}) + "\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("format_version=1\nimage_dim=2\ntext_dim=4\nreference_count=3\nquery_count=0\n")
    out = tmp_path / "store"
    assert main(["ingest", "--out", str(out), "--manifest", str(manifest), "--refs-emb", str(refs)]) == 0
    store = Store.load(out)
    assert store.ref_ids == ["a0", "a1", "a2"]


def test_caption_and_embed_attach_flow(tmp_path, mini_store):
    store = Store.load(mini_store)
    base = json.loads((GOLDEN / "sheet_first_options.json").read_text())
    sheets = tmp_path / "sheets.jsonl"
    with open(sheets, "w") as fh:
        for rid in store.ref_ids[:3]:
            fh.write(json.dumps({"image_id": rid, "answers": base["answers"]}) + "\n")
    descs = tmp_path / "descs.jsonl"
    assert main(["caption", "--sheets", str(sheets), "--out", str(descs)]) == 0
    assert len(descs.read_text().splitlines()) == 3

    emb = tmp_path / "emb.jsonl"
    assert main(["embed", "--texts", str(descs), "--out", str(emb), "--text-dim", "8",
                 "--attach", str(mini_store), "--side", "refs"]) == 0
    rows = [json.loads(line) for line in emb.read_text().splitlines()]
    assert len(rows) == 3 and len(rows[0]["embedding"]) == 8
    reloaded = Store.load(mini_store)
    # identical sheets embed to identical vectors
    a = reloaded.ref_text_emb(store.ref_ids[0])
    b = reloaded.ref_text_emb(store.ref_ids[1])
    assert a is not None and np.array_equal(a, b)


def test_caption_invalid_sheet_exits_1(tmp_path, capsys):
    base = json.loads((GOLDEN / "sheet_first_options.json").read_text())
    answers = dict(base["answers"])
    answers["Q2"] = "spaghetti junction"
    sheets = tmp_path / "sheets.jsonl"
    sheets.write_text(json.dumps({"image_id": "img9", "answers": answers}) + "\n")
    assert main(["caption", "--sheets", str(sheets), "--out", str(tmp_path / "d.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "img9" in err and "Q2" in err


def test_embed_dim_mismatch_on_attach_exits_1(tmp_path, mini_store, capsys):
    texts = tmp_path / "texts.jsonl"
    texts.write_text(json.dumps({"id": "r00", "text": "hello"}) + "\n")
    assert main(["embed", "--texts", str(texts), "--text-dim", "16", "--attach", str(mini_store)]) == 1
    assert "text_dim" in capsys.readouterr().err


def test_embed_attach_refuses_nonfinite_vector_and_writes_nothing(tmp_path, mini_store, monkeypatch, capsys):
    from georank import cvlang

    texts = tmp_path / "texts.jsonl"
    texts.write_text(json.dumps({"id": "r00", "text": "hello"}) + "\n")
    monkeypatch.setattr(cvlang, "embed_texts", lambda texts, endpoint: [np.full(endpoint.text_dim, np.nan, np.float32)])
    before = store_digest(mini_store)
    assert main(["embed", "--texts", str(texts), "--text-dim", "8", "--attach", str(mini_store)]) == 1
    assert "id 'r00' has a non-finite text embedding" in capsys.readouterr().err
    assert store_digest(mini_store) == before


def test_stability_cli(tmp_path):
    corpus_a = tmp_path / "a.jsonl"
    corpus_b = tmp_path / "b.jsonl"
    for path, suffix in ((corpus_a, ""), (corpus_b, " extra")):
        with open(path, "w") as fh:
            for i in range(4):
                fh.write(json.dumps({"id": f"i{i}", "description": f"scene {i}{suffix}"}) + "\n")
    out = tmp_path / "stab"
    assert main(["stability", "--corpus-a", str(corpus_a), "--corpus-b", str(corpus_b),
                 "--text-dim", "32", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert 0.0 <= payload["mean_jaccard"] <= 1.0
    assert payload["count"] == 4
    assert payload["reference_context"]["cosine"] == 0.83


def _stability_inputs(tmp_path, emb_a, emb_b):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"i{i}", "description": f"scene {i}"}) + "\n" for i in range(2)))
    paths = []
    for name, records in (("emb_a.jsonl", emb_a), ("emb_b.jsonl", emb_b)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in records))
    return ["stability", "--corpus-a", str(corpus), "--corpus-b", str(corpus), "--emb-a", str(paths[0]),
            "--emb-b", str(paths[1]), "--out", str(tmp_path / "stab")], paths


def test_stability_embedding_without_id_names_file_and_line(tmp_path, capsys):
    good = [{"id": "i0", "embedding": [1.0, 0.0]}, {"id": "i1", "embedding": [0.0, 1.0]}]
    args, (_, emb_b) = _stability_inputs(tmp_path, good, [good[0], {"embedding": [0.0, 1.0]}])
    assert main(args) == 1
    assert f"error: {emb_b}, line 2: missing or invalid 'id'" in capsys.readouterr().err
    assert not (tmp_path / "stab").exists()


def test_stability_embedding_width_mismatch_names_file_line_and_id(tmp_path, capsys):
    emb_a = [{"id": "i0", "embedding": [1.0, 0.0]}, {"id": "i1", "embedding": [0.0, 1.0]}]
    emb_b = [{"id": "i0", "embedding": [1.0, 0.0]}, {"id": "i1", "embedding": [0.0, 1.0, 0.0]}]
    args, (_, path_b) = _stability_inputs(tmp_path, emb_a, emb_b)
    assert main(args) == 1
    assert f"error: {path_b}, line 2, id 'i1': embedding has 3 values, expected 2" in capsys.readouterr().err
    assert not (tmp_path / "stab").exists()


@pytest.mark.parametrize("bad", [[float("nan"), 1.0], [1e39, 0.0], [0.0, 0.0]], ids=["nan", "overflow", "zero"])
def test_stability_refuses_nonfinite_or_zero_embedding_naming_file_line_and_id(tmp_path, capsys, bad):
    good = [{"id": "i0", "embedding": [1.0, 0.0]}, {"id": "i1", "embedding": [0.0, 1.0]}]
    args, (emb_a, _) = _stability_inputs(tmp_path, [good[0], {"id": "i1", "embedding": bad}], good)
    assert main(args) == 1
    assert f"error: {emb_a}, line 2, id 'i1': embedding" in capsys.readouterr().err
    assert not (tmp_path / "stab").exists()


def test_semipositive_exclusion_pipeline(tmp_path):
    store_dir = tmp_path / "store"
    assert main(synth_args(store_dir, locations=12, group_size=3)) == 0
    rankings = tmp_path / "rankings.jsonl"
    assert main(["retrieve", "--store", str(store_dir), "--k", "6", "--out", str(rankings)]) == 0
    samples = tmp_path / "samples.jsonl"
    assert main(["build-samples", "--store", str(store_dir), "--rankings", str(rankings),
                 "--out", str(samples), "--exclude-semipositives"]) == 0
    from georank.trainer import load_samples
    from georank.geostore import load_groups

    groups = load_groups(store_dir / "groups.jsonl")
    for s in load_samples(samples):
        gq = groups[s.query_id]
        for i, rid in enumerate(s.candidate_ids):
            if i != s.positive_index:
                assert groups[rid] != gq  # same-group mates were excluded


# ---------------------------------------------------------------------------
# end-to-end mini pipeline
# ---------------------------------------------------------------------------

def test_end_to_end_pipeline(tmp_path):
    store_dir = tmp_path / "store"
    assert main(synth_args(store_dir, locations=24, group_size=4, seed=1)) == 0
    baseline = tmp_path / "baseline.jsonl"
    assert main(["retrieve", "--store", str(store_dir), "--k", "10", "--out", str(baseline)]) == 0
    samples = tmp_path / "samples.jsonl"
    assert main(["build-samples", "--store", str(store_dir), "--rankings", str(baseline),
                 "--out", str(samples)]) == 0
    train_dir = tmp_path / "train"
    assert main(["train", "--store", str(store_dir), "--samples", str(samples), "--out", str(train_dir),
                 "--epochs", "2", "--lr", "0.003", "--batch-size", "8",
                 "--latent-dim", "8", "--aligner-hidden", "8"]) == 0
    assert (train_dir / "final.gvck").exists()
    assert (train_dir / "train_report.csv").exists()
    reranked = tmp_path / "reranked.jsonl"
    assert main(["rerank", "--store", str(store_dir), "--rankings", str(baseline),
                 "--checkpoint", str(train_dir / "final.gvck"), "--out", str(reranked)]) == 0

    compare_dir = tmp_path / "compare"
    assert main(["compare", "--store", str(store_dir), "--baseline", str(baseline),
                 "--reranked", str(reranked), "--out", str(compare_dir)]) == 0
    payload = json.loads((compare_dir / "report.json").read_text())
    assert payload["recall"]["10"]["delta"] == 0.0
    for name in ("report.json", "report.csv", "report.svg"):
        assert (compare_dir / name).exists()

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--store", str(store_dir), "--rankings", str(baseline), "--out", str(eval_dir)]) == 0
    metrics = json.loads((eval_dir / "report.json").read_text())
    assert 0.0 <= metrics["recall"]["1"] <= 1.0
    assert "threshold_recall" in metrics  # synthetic stores carry coordinates


def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "georank"


def test_rerank_command_equals_per_query_rerank(tmp_path):
    """perfbench checks the rankings `georank rerank` writes against per-query
    `reranker.rerank` calls exactly, scores included; a batched forward would
    round differently."""
    store_dir = tmp_path / "store"
    assert main(["synth", "--out", str(store_dir), "--locations", "40", "--group-size", "4",
                 "--image-dim", "64", "--text-dim", "64", "--seed", "3"]) == 0
    baseline = tmp_path / "baseline.jsonl"
    assert main(["retrieve", "--store", str(store_dir), "--k", "10", "--out", str(baseline)]) == 0
    ckpt = tmp_path / "init.gvck"
    cfg = RerankerConfig(image_dim=64, text_dim=64, latent_dim=64, aligner_hidden=64, init_seed=5)
    reranker.save_params(ckpt, reranker.init_params(cfg))
    out = tmp_path / "reranked.jsonl"
    assert main(["rerank", "--store", str(store_dir), "--rankings", str(baseline), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    store, params = Store.load(store_dir), reranker.load_params(ckpt)
    want = [reranker.rerank(store.query(r.query_id), r, params, store) for r in load_rankings(baseline)]
    got = load_rankings(out)
    assert len(got) == 40
    assert [(r.query_id, r.entries) for r in got] == [(r.query_id, r.entries) for r in want]


def test_ingested_store_pipeline(tmp_path):
    # ingest raw JSONL (not synth), then retrieve/rerank over it
    rng = np.random.default_rng(31)
    n_refs, dim, tdim = 8, 4, 3
    with open(tmp_path / "refs.jsonl", "w") as fh:
        for i in range(n_refs):
            fh.write(json.dumps({"id": f"r{i}", "embedding": [float(x) for x in rng.standard_normal(dim)]}) + "\n")
    with open(tmp_path / "ref_txt.jsonl", "w") as fh:
        for i in range(n_refs):
            fh.write(json.dumps({"id": f"r{i}", "embedding": [float(x) for x in rng.standard_normal(tdim)]}) + "\n")
    with open(tmp_path / "qs.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "q0", "embedding": [float(x) for x in rng.standard_normal(dim)]}) + "\n")
    with open(tmp_path / "q_txt.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "q0", "embedding": [float(x) for x in rng.standard_normal(tdim)]}) + "\n")
    with open(tmp_path / "truth.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "q0", "refs": ["r3"]}) + "\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"format_version=1\nimage_dim={dim}\ntext_dim={tdim}\nreference_count={n_refs}\nquery_count=1\n"
    )
    store = tmp_path / "store"
    assert main(["ingest", "--out", str(store), "--manifest", str(manifest),
                 "--refs-emb", str(tmp_path / "refs.jsonl"),
                 "--refs-text-emb", str(tmp_path / "ref_txt.jsonl"),
                 "--queries-emb", str(tmp_path / "qs.jsonl"),
                 "--queries-text-emb", str(tmp_path / "q_txt.jsonl"),
                 "--truth", str(tmp_path / "truth.jsonl")]) == 0
    rankings = tmp_path / "rankings.jsonl"
    assert main(["retrieve", "--store", str(store), "--k", "5", "--out", str(rankings)]) == 0
    samples = tmp_path / "samples.jsonl"
    assert main(["build-samples", "--store", str(store), "--rankings", str(rankings), "--out", str(samples)]) == 0
    train_dir = tmp_path / "train"
    assert main(["train", "--store", str(store), "--samples", str(samples), "--out", str(train_dir),
                 "--epochs", "1", "--latent-dim", "4", "--aligner-hidden", "4", "--val-split", "0"]) == 0
    reranked = tmp_path / "reranked.jsonl"
    assert main(["rerank", "--store", str(store), "--rankings", str(rankings),
                 "--checkpoint", str(train_dir / "final.gvck"), "--out", str(reranked)]) == 0
    out = load_rankings(reranked)
    assert sorted(out[0].ids()) == sorted(load_rankings(rankings)[0].ids())


def test_store_coords_reads_the_column_or_is_none():
    from georank import cli
    from georank.evaluator import threshold_recall
    from georank.geostore import GeoCoord
    from georank.retriever import Ranking
    from conftest import build_store, make_query, make_ref

    refs = [make_ref("r0", [1.0, 0.0], coord=GeoCoord(1.0, 2.0)), make_ref("r1", [0.0, 1.0], coord=GeoCoord(3.0, 4.0))]
    store = build_store(refs, [make_query("q0", [1.0, 0.5], ["r0"], coord=GeoCoord(1.0, 2.0))], image_dim=2)
    coords = cli._store_coords(store)
    assert dict(coords) == {"r0": GeoCoord(1.0, 2.0), "r1": GeoCoord(3.0, 4.0)} and "q0" not in coords
    with pytest.raises(ValueError, match="missing coordinate for id 'q0'"):
        threshold_recall([Ranking("q0", [("q0", 1.0)], k=1)], coords, {"q0": ("r0",)}, 0.5, 1)
    refs[1].coord = None
    assert cli._store_coords(build_store(refs, [], image_dim=2)) is None
