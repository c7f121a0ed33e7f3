"""Unit tests for the command-line interface (driving main() directly)."""

import json

import pytest

from repro.cli import main
from repro.data import generate_fortythree, FortyThreeConfig, save_dataset
from repro.storage import JsonLibraryStore


@pytest.fixture
def library_path(tmp_path, recipe_library):
    path = tmp_path / "lib.json"
    JsonLibraryStore(path).save(recipe_library)
    return path


@pytest.fixture
def dataset_path(tmp_path):
    dataset = generate_fortythree(FortyThreeConfig.tiny(), seed=1)
    return save_dataset(dataset, tmp_path / "ds.json")


class TestGenerate:
    def test_generates_dataset_file(self, tmp_path, capsys):
        out = tmp_path / "fm.json"
        code = main(
            [
                "generate", "--scenario", "foodmart", "--scale", "tiny",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["name"] == "foodmart"
        assert "wrote" in capsys.readouterr().out

    def test_43things_scenario(self, tmp_path, capsys):
        out = tmp_path / "ft.json"
        code = main(
            ["generate", "--scenario", "43things", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["name"] == "43things"


class TestInspect:
    def test_inspect_dataset(self, dataset_path, capsys):
        assert main(["inspect", str(dataset_path)]) == 0
        assert "43things" in capsys.readouterr().out

    def test_inspect_library(self, library_path, capsys):
        assert main(["inspect", str(library_path)]) == 0
        assert "connectivity" in capsys.readouterr().out


class TestRecommend:
    def test_recommend_prints_table(self, library_path, capsys):
        code = main(
            [
                "recommend", "--library", str(library_path),
                "--activity", "potatoes,carrots", "--strategy", "breadth",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pickles" in out
        assert "breadth top-3" in out

    def test_unmatched_activity_exit_code(self, library_path, capsys):
        code = main(
            [
                "recommend", "--library", str(library_path),
                "--activity", "martian",
            ]
        )
        assert code == 1
        assert "no recommendations" in capsys.readouterr().out

    def test_missing_library_reports_error(self, tmp_path, capsys):
        code = main(
            [
                "recommend", "--library", str(tmp_path / "nope.json"),
                "--activity", "potatoes",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluate_prints_all_methods(self, dataset_path, capsys):
        code = main(
            [
                "evaluate", "--dataset", str(dataset_path),
                "-k", "5", "--max-users", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for method in ("breadth", "best_match", "cf_knn", "popularity"):
            assert method in out


class TestExtract:
    def test_extract_builds_library(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text(
            "lose weight\tI joined a gym. Drank more water.\n"
            "\n"
            "save money\tStop eating out; cook at home.\n"
        )
        out = tmp_path / "extracted.json"
        code = main(
            ["extract", "--stories", str(stories), "--out", str(out)]
        )
        assert code == 0
        library = JsonLibraryStore(out).load()
        assert len(library) == 2

    def test_malformed_line_fails(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text("no tab separator here\n")
        code = main(
            ["extract", "--stories", str(stories), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "goal<TAB>story" in capsys.readouterr().err

    def test_no_actions_extracted_fails(self, tmp_path, capsys):
        stories = tmp_path / "stories.tsv"
        stories.write_text("vague goal\tIt was nice.\n")
        code = main(
            ["extract", "--stories", str(stories), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1


class TestGoals:
    def test_goals_inferred(self, library_path, capsys):
        code = main(
            [
                "goals", "--library", str(library_path),
                "--activity", "potatoes,carrots", "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "olivier salad" in out
        assert "inferred goals" in out

    def test_scorer_selectable(self, library_path, capsys):
        code = main(
            [
                "goals", "--library", str(library_path),
                "--activity", "potatoes", "--scorer", "evidence",
            ]
        )
        assert code == 0
        assert "evidence" in capsys.readouterr().out

    def test_unmatched_activity_exit_code(self, library_path, capsys):
        code = main(
            ["goals", "--library", str(library_path), "--activity", "martian"]
        )
        assert code == 1


class TestServe:
    def test_serve_starts_and_stops(self, library_path, capsys):
        import argparse

        from repro.cli import _cmd_serve

        args = argparse.Namespace(
            library=library_path, host="127.0.0.1", port=0
        )
        code = _cmd_serve(args, block=False)
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "/recommend" in out

    def test_serve_missing_library_errors(self, tmp_path):
        code = main(
            [
                "serve", "--library", str(tmp_path / "nope.json"),
                "--port", "0",
            ]
        )
        assert code == 2

    def test_serve_malformed_library_errors(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code = main(["serve", "--library", str(path), "--port", "0"])
        assert code == 2
        assert "error: library payload must be an object" in capsys.readouterr().err

    def test_approx_budget_flag_parses_with_default(self, library_path):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["serve", "--library", str(library_path)]
        )
        assert args.approx_budget == 128
        args = parser.parse_args(
            [
                "serve", "--library", str(library_path),
                "--approx-budget", "5",
            ]
        )
        assert args.approx_budget == 5

    def test_approx_budget_reaches_service(self, library_path, capsys):
        import argparse

        from repro.cli import _cmd_serve

        args = argparse.Namespace(
            library=library_path, host="127.0.0.1", port=0, approx_budget=9
        )
        code = _cmd_serve(args, block=False)
        assert code == 0
        assert "serving" in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_report_goes_to_stderr(self, library_path, capsys):
        code = main(
            [
                "--profile", "--profile-sort", "tottime",
                "recommend", "--library", str(library_path),
                "--activity", "potatoes", "-k", "3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "# profiled calls: 1" in captured.err
        assert "tottime" in captured.err
        # stdout still carries the command's own table, uncontaminated.
        assert "profiled calls" not in captured.out

    def test_profile_out_writes_report_file(
        self, library_path, tmp_path, capsys
    ):
        report_path = tmp_path / "deep" / "profile.txt"
        code = main(
            [
                "--profile", "--profile-out", str(report_path),
                "inspect", str(library_path),
            ]
        )
        assert code == 0
        assert report_path.read_text().startswith("# profiled calls: 1")
        assert "wrote profile" in capsys.readouterr().err

    def test_profile_preserves_the_command_exit_code(
        self, library_path, capsys
    ):
        code = main(
            [
                "--profile",
                "recommend", "--library", str(library_path),
                "--activity", "martian",
            ]
        )
        assert code == 1
        assert "# profiled calls: 1" in capsys.readouterr().err
