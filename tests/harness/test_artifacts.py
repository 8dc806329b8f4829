"""Tests for artifact bundle generation."""

import os

import pytest

from repro.core.study import Study, StudyConfig
from repro.harness.artifacts import ArtifactBundle, build_artifacts, write_artifacts


@pytest.fixture(scope="module")
def bundle():
    return build_artifacts(Study(StudyConfig(runs=2, seed=1)), curves=False)


class TestBundle:
    def test_tables_present(self, bundle):
        for n in (4, 5, 6, 7):
            assert f"tables/table{n}.txt" in bundle.files

    def test_figures_present(self, bundle):
        for n in (1, 2, 3):
            assert f"figures/figure{n}.txt" in bundle.files
            assert f"figures/figure{n}.dot" in bundle.files

    def test_report_and_comparison(self, bundle):
        assert "report.md" in bundle.files
        assert "comparison.md" in bundle.files
        assert "RelErr" in bundle.files["comparison.md"]

    def test_contents_newline_terminated(self, bundle):
        for content in bundle.files.values():
            assert content.endswith("\n")

    def test_duplicate_path_rejected(self):
        b = ArtifactBundle()
        b.add("x.txt", "hello")
        with pytest.raises(ValueError):
            b.add("x.txt", "again")

    def test_curves_included_when_asked(self):
        full = build_artifacts(Study(StudyConfig(runs=2, seed=1)), curves=True)
        assert any(p.startswith("curves/") for p in full.files)
        # one CPU babelstream + osu per CPU machine, one per GPU machine
        assert sum(1 for p in full.files if p.startswith("curves/")) == 5 * 2 + 8


class TestWrite:
    def test_write_creates_tree(self, tmp_path, bundle):
        written = bundle.write_to(str(tmp_path))
        assert len(written) == len(bundle.files)
        for path in written:
            assert os.path.isfile(path)

    def test_write_artifacts_end_to_end(self, tmp_path):
        paths = write_artifacts(
            str(tmp_path), Study(StudyConfig(runs=2, seed=1)), curves=False
        )
        table4 = next(p for p in paths if p.endswith("table4.txt"))
        with open(table4) as fh:
            assert "29. Trinity" in fh.read()


def obs_run(**config):
    """An obs-on bundle and the tracer that recorded it."""
    from repro.obs import ObsContext, runtime as obs

    ctx = ObsContext.create()
    with obs.observability(ctx):
        bundle = build_artifacts(
            Study(StudyConfig(runs=2, seed=1, **config)), curves=False
        )
    return bundle, ctx.tracer


def sim_runs(tracer) -> list:
    """(name, begin, end, run) of every simulated-time span recorded."""
    return [
        (r.name, r.sim_begin, r.sim_end, r.run)
        for r in tracer.span_records() if r.sim_begin is not None
    ]


#: the phases each benchmark family's windows may carry
GPU_PHASES = {"launch", "queue", "exec", "dma", "gpu", "overhead"}
MPI_PHASES = {"eager", "match", "rendezvous", "mpi", "link", "overhead"}


class TestObsAttribution:
    """With observability on, the bundle gains the phase digest."""

    @pytest.fixture(scope="class")
    def serial_obs(self):
        return obs_run()

    @pytest.fixture(scope="class")
    def obs_bundle(self, serial_obs):
        return serial_obs[0]

    def test_attribution_files_present(self, obs_bundle):
        assert "obs/attribution.json" in obs_bundle.files
        assert "obs/attribution.txt" in obs_bundle.files
        assert "obs/metrics.json" in obs_bundle.files

    def test_attribution_phases_sum_to_cells(self, obs_bundle):
        import json

        cells = json.loads(obs_bundle.files["obs/attribution.json"])
        assert {c["cell"] for c in cells} >= {"osu.pingpong"}
        for cell in cells:
            drift = abs(sum(cell["phases_us"].values()) - cell["total_us"])
            assert drift <= 0.01 * cell["total_us"]

    def test_windows_carry_only_their_own_layers_phases(self, obs_bundle):
        import json

        cells = json.loads(obs_bundle.files["obs/attribution.json"])
        families = {"cs.": GPU_PHASES, "osu.": MPI_PHASES}
        seen = set()
        for cell in cells:
            prefix = cell["cell"].split(".")[0] + "."
            seen.add(prefix)
            assert set(cell["phases_us"]) <= families[prefix], cell
        assert seen == set(families)

    @pytest.mark.parallel
    def test_attribution_and_run_numbers_match_at_jobs_2(self, serial_obs):
        bundle, tracer = obs_run(jobs=2)
        assert sim_runs(tracer) == sim_runs(serial_obs[1])
        assert bundle.files["obs/attribution.json"] == \
            serial_obs[0].files["obs/attribution.json"]

    def test_warm_cache_rerun_attributes_as_a_cold_run(self, serial_obs,
                                                       tmp_path):
        cold = obs_run(cache=True, cache_dir=str(tmp_path))
        warm = obs_run(cache=True, cache_dir=str(tmp_path))
        for bundle, tracer in (cold, warm):
            assert sim_runs(tracer) == sim_runs(serial_obs[1])
            assert bundle.files["obs/attribution.json"] == \
                serial_obs[0].files["obs/attribution.json"]

    def test_obs_off_bundle_has_no_obs_files(self, bundle):
        assert not [p for p in bundle.files if p.startswith("obs/")]
