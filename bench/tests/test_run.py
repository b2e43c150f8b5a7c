"""The benchmark command end to end, at smoke size, in a copied checkout."""

import json

from .conftest import last_json, run_bench


def config(checkout):
    return json.loads((checkout / "BENCHMARK.json").read_text())


def test_every_configured_metric_is_emitted_with_its_unit(checkout):
    expected = config(checkout)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = run_bench(checkout, "--workload", "suite-warm", "--smoke",
                                "--seconds", "0.5", "--trace", trace)
        assert code == 0, lines[-5:]
        result = last_json(lines)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in expected[section]}


def test_tampered_golden_fails_the_run(checkout):
    path = checkout / "bench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["cells"]["mcf|ref|ooo|0.1|off"] = "0" * 64
    path.write_text(json.dumps(golden))
    code, lines = run_bench(checkout, "--workload", "suite-warm", "--smoke",
                            "--seconds", "0.5")
    assert code != 0
    result = last_json(lines)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_without_the_sources_it_fails_without_a_result(checkout):
    (checkout / "src").unlink()
    code, lines = run_bench(checkout, "--workload", "suite-cold", "--seconds", "1")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
