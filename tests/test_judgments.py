"""The judgment models as data (§3, Table 1)."""

from repro.core.judgments import JUDGMENT_MODELS


class TestTable1:
    def test_all_models_present(self):
        assert set(JUDGMENT_MODELS) == {"preference", "binary", "graded"}

    def test_descriptor_fields_match_paper(self):
        binary = JUDGMENT_MODELS["binary"]
        assert binary.target == "item pair"
        assert binary.workload == "large"
        graded = JUDGMENT_MODELS["graded"]
        assert graded.preference == "absolute"
        assert not graded.has_stopping_rule
        assert JUDGMENT_MODELS["preference"].has_stopping_rule
