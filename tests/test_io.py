import json

import numpy as np
import pytest

from pignistic import (
    DuplicateFocalSetError,
    DuplicateLabelError,
    EmptyFrameError,
    EmptySetMassError,
    FrameMismatchError,
    FrameTooLargeError,
    MassOutOfRangeError,
    MassSumMismatchError,
    ParseError,
    PignisticError,
    TransformKind,
    UnknownLabelError,
    ValidationError,
    report_for,
)
from pignistic.io import (
    HUMAN,
    MACHINE,
    parse_bba_document,
    parse_bba_or_distribution,
    parse_distribution_document,
    parse_report_record,
    parse_threshold_document,
    render_comparison,
    render_report,
    serialize_mass_function,
    serialize_threshold_set,
)


BAD_MASS = {"elements": ["a"], "mass": 2.0}
EMPTY = {"elements": [], "mass": 0.5}
TWICE = [{"elements": ["b"], "mass": 0.25}, {"elements": ["b"], "mass": 0.25}]
UNKNOWN = {"elements": ["zz"], "mass": 0.5}
MALFORMED = {"elements": ["a"], "mass": "0.5"}


class TestParseBba:
    def test_combat_fixture(self, data_dir):
        m = parse_bba_document((data_dir / "combat_id.json").read_text())
        assert len(m) == 15
        assert m.frame.labels == ("F", "N", "U", "H")

    def test_vacuous(self):
        text = json.dumps(
            {"frame": ["a", "b"], "masses": [{"elements": ["a", "b"], "mass": 1.0}]}
        )
        m = parse_bba_document(text)
        assert m.mass(m.frame.full_set) == 1.0

    def test_malformed_json(self, data_dir):
        with pytest.raises(ParseError) as err:
            parse_bba_document((data_dir / "invalid" / "bad_json.json").read_text())
        assert "line" in str(err.value)

    def test_byte_order_mark(self, data_dir):
        with pytest.raises(ParseError) as err:
            parse_bba_document((data_dir / "invalid" / "bom.json").read_text())
        assert str(err.value) == (
            "malformed JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        )

    def test_sum_mismatch_names_deficit(self, data_dir):
        with pytest.raises(MassSumMismatchError) as err:
            parse_bba_document((data_dir / "invalid" / "sum_mismatch.json").read_text())
        assert "0.99" in str(err.value)

    def test_unknown_label(self, data_dir):
        with pytest.raises(UnknownLabelError):
            parse_bba_document(
                (data_dir / "invalid" / "unknown_label.json").read_text()
            )

    def test_duplicate_focal(self, data_dir):
        with pytest.raises(DuplicateFocalSetError):
            parse_bba_document(
                (data_dir / "invalid" / "duplicate_focal.json").read_text()
            )

    def test_mass_out_of_range(self, data_dir):
        with pytest.raises(MassOutOfRangeError):
            parse_bba_document(
                (data_dir / "invalid" / "mass_out_of_range.json").read_text()
            )

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            parse_bba_document('{"masses": []}')
        with pytest.raises(ParseError):
            parse_bba_document('{"frame": ["a"]}')
        with pytest.raises(ParseError):
            parse_bba_document(
                '{"frame": ["a"], "masses": [{"elements": ["a"]}]}'
            )

    # One malformed record after a valid one: the error type, and the
    # record's index where the message names one.
    @pytest.mark.parametrize(
        "record, error, names_record",
        [
            ('["a"]', ParseError, True),
            ('{"mass": 0.5}', ParseError, True),
            ('{"elements": "a", "mass": 0.5}', ParseError, True),
            ('{"elements": ["a", 1], "mass": 0.5}', ParseError, True),
            ('{"elements": ["zz"], "mass": 0.5}', UnknownLabelError, False),
            ('{"elements": ["b"]}', ParseError, True),
            ('{"elements": ["b"], "mass": "0.5"}', ParseError, True),
            ('{"elements": ["b"], "mass": true}', ParseError, True),
            ('{"elements": ["b"], "mass": NaN}', ParseError, False),
        ],
    )
    def test_malformed_record(self, record, error, names_record):
        text = f'{{"frame": ["a", "b"], "masses": [{{"elements": ["a"], "mass": 0.5}}, {record}]}}'
        with pytest.raises(error) as err:
            parse_bba_document(text)
        assert type(err.value) is error
        assert ("masses[1]" in str(err.value)) == names_record

    def test_type_errors_come_before_unknown_labels(self):
        text = json.dumps({
            "frame": ["a", "b"],
            "masses": [{"elements": ["zz"], "mass": 0.5}, {"elements": ["b"], "mass": "x"}],
        })
        with pytest.raises(ParseError, match=r"masses\[1\]"):
            parse_bba_document(text)

    # The document ranking, whatever the records' order: a malformed record,
    # then an unknown label, then the empty set, then the other value errors.
    @pytest.mark.parametrize(
        "records, error, message",
        [
            ([BAD_MASS, UNKNOWN], UnknownLabelError, "^bba document: label 'zz' not in frame"),
            ([EMPTY, UNKNOWN], UnknownLabelError, "^bba document: label 'zz' not in frame"),
            ([*TWICE, UNKNOWN], UnknownLabelError, "^bba document: label 'zz' not in frame"),
            ([BAD_MASS, UNKNOWN, MALFORMED], ParseError, r"^masses\[2\]: field 'mass'"),
            ([EMPTY, UNKNOWN, MALFORMED], ParseError, r"^masses\[2\]: field 'mass'"),
            ([*TWICE, UNKNOWN, MALFORMED], ParseError, r"^masses\[3\]: field 'mass'"),
            ([BAD_MASS, EMPTY], EmptySetMassError, "^bba document: the empty set"),
        ],
        ids=[
            "unknown-after-bad-mass", "unknown-after-empty-set", "unknown-after-duplicate",
            "malformed-after-bad-mass", "malformed-after-empty-set", "malformed-after-duplicate",
            "empty-set-after-bad-mass",
        ],
    )
    def test_error_ranking(self, records, error, message):
        text = json.dumps({"frame": ["a", "b"], "masses": records})
        with pytest.raises(error, match=message) as err:
            parse_bba_document(text)
        assert type(err.value) is error

    # Every field is checked by one rule, and its message says which field
    # and what it must hold.
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"frame": ["a"], "masses": [{"elements": ["a"]}]},
             "masses[0]: missing field 'mass'"),
            ({"frame": ["a"], "masses": [{"elements": ["a"], "mass": "0.5"}]},
             "masses[0]: field 'mass' must be number, got str"),
            ({"frame": ["a"], "masses": [{"elements": ["a", 1], "mass": 1.0}]},
             "masses[0]: field 'elements' must be a list of strings"),
            ({"frame": ["a", 1], "masses": [{"elements": ["a"], "mass": 1.0}]},
             "bba document: field 'frame' must be a list of strings"),
        ],
        ids=["missing-mass", "string-mass", "non-string-element", "non-string-frame-label"],
    )
    def test_field_message(self, doc, message):
        with pytest.raises(ParseError) as err:
            parse_bba_document(json.dumps(doc))
        assert str(err.value) == message

    # A frame error is named for the document too, through either reader of a BBA.
    @pytest.mark.parametrize("parse", [parse_bba_document, parse_bba_or_distribution])
    @pytest.mark.parametrize(
        "labels, error, message",
        [
            ([], EmptyFrameError, "a frame needs at least one label"),
            (["a", ""], EmptyFrameError, "frame labels must be non-empty strings"),
            (["a", "a"], DuplicateLabelError, "duplicate label 'a'"),
            ([f"h{i}" for i in range(65)], FrameTooLargeError,
             "frame has 65 labels; at most 64 supported"),
        ],
        ids=["no-labels", "empty-label", "duplicate-label", "65-labels"],
    )
    def test_frame_error(self, parse, labels, error, message):
        text = json.dumps({"frame": labels, "masses": [{"elements": ["a"], "mass": 1.0}]})
        with pytest.raises(error) as err:
            parse(text)
        assert type(err.value) is error
        assert str(err.value) == f"bba document: {message}"

    def test_duplicate_before_a_later_bad_mass(self):
        records = [{"elements": ["a"], "mass": 0.5}, {"elements": ["a"], "mass": 0.5}, BAD_MASS]
        text = json.dumps({"frame": ["a", "b"], "masses": records})
        with pytest.raises(DuplicateFocalSetError) as err:
            parse_bba_document(text)
        assert type(err.value) is DuplicateFocalSetError
        assert str(err.value) == "bba document: focal set ('a',) assigned more than once"

    def test_first_unknown_label_in_input_order_after_an_empty_set(self):
        records = [EMPTY, {"elements": ["a", "yy"], "mass": 0.25}, UNKNOWN]
        text = json.dumps({"frame": ["a", "b"], "masses": records})
        with pytest.raises(UnknownLabelError, match="^bba document: label 'yy' not in frame") as err:
            parse_bba_document(text)
        assert type(err.value) is UnknownLabelError

    def test_object_elements(self):
        # from_labels refuses the mapping; the second walk words the record
        text = json.dumps({"frame": ["a", "b"], "masses": [{"elements": {"a": 1}, "mass": 1.0}]})
        with pytest.raises(ParseError) as err:
            parse_bba_document(text)
        assert type(err.value) is ParseError
        assert str(err.value) == "masses[0]: field 'elements' must be list, got dict"

    def test_huge_integer_mass(self):
        text = '{"frame": ["a"], "masses": [{"elements": ["a"], "mass": 1%s}]}' % ("0" * 400)
        with pytest.raises(MassOutOfRangeError):
            parse_bba_document(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"frame": ["a"], "masses": [{"elements": ["a"], "mass": 1%s}]}' % ("0" * 5000),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["5000-digit-mass", "deep-nesting"],
    )
    def test_json_the_decoder_cannot_convert(self, text):
        with pytest.raises(ParseError):
            parse_bba_document(text)

    def test_round_trip(self, data_dir):
        m = parse_bba_document((data_dir / "combat_id.json").read_text())
        again = parse_bba_document(serialize_mass_function(m))
        assert again.frame == m.frame
        assert {s.bits: v for s, v in again.focal_sets()} == {
            s.bits: v for s, v in m.focal_sets()
        }


class TestParseThresholds:
    def test_valid(self, data_dir):
        t = parse_threshold_document(
            (data_dir / "thresholds_standard.json").read_text()
        )
        assert t.bel_thresholds == (0.3, 0.5, 0.7)
        assert t.pl_thresholds == (1.2, 1.5, 1.8)
        assert t.profile_name == "standard"

    def test_ordering_violation(self, data_dir):
        with pytest.raises(ValidationError):
            parse_threshold_document(
                (data_dir / "invalid" / "thresholds_bad_order.json").read_text()
            )

    def test_missing_pl(self, data_dir):
        with pytest.raises(ParseError):
            parse_threshold_document(
                (data_dir / "invalid" / "thresholds_missing_pl.json").read_text()
            )

    def test_profile_name_must_be_a_string(self):
        text = json.dumps({"profile_name": 5, "bel": [0.3, 0.5, 0.7], "pl": [1.2, 1.5, 1.8]})
        with pytest.raises(ParseError) as err:
            parse_threshold_document(text)
        assert str(err.value) == "threshold document: field 'profile_name' must be str, got int"

    def test_round_trip(self, data_dir):
        t = parse_threshold_document(
            (data_dir / "thresholds_standard.json").read_text()
        )
        assert parse_threshold_document(serialize_threshold_set(t)) == t


class TestParseDistribution:
    def test_valid(self):
        p = parse_distribution_document(
            '{"frame": ["a", "b"], "probabilities": [0.75, 0.25]}'
        )
        assert p["a"] == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            parse_distribution_document(
                '{"frame": ["a", "b"], "probabilities": [1.0]}'
            )

    def test_sum_violation(self):
        with pytest.raises(ValidationError):
            parse_distribution_document(
                '{"frame": ["a", "b"], "probabilities": [0.9, 0.9]}'
            )

    # the prefix is a BBA document's: a distribution keeps the frame's own message
    @pytest.mark.parametrize("parse", [parse_distribution_document, parse_bba_or_distribution])
    def test_duplicate_label(self, parse):
        with pytest.raises(DuplicateLabelError) as err:
            parse('{"frame": ["a", "a"], "probabilities": [0.5, 0.5]}')
        assert str(err.value) == "duplicate label 'a'"

    def test_bool_probabilities(self):
        with pytest.raises(ParseError):
            parse_distribution_document(
                '{"frame": ["a", "b"], "probabilities": [true, false]}'
            )


class TestRenderReport:
    def test_human_six_decimals(self, combat_bba):
        report = report_for(combat_bba, TransformKind.BET_P, 0.0455)
        text = render_report(report, HUMAN)
        for value in ["0.398333", "0.343333", "0.153333", "0.105000"]:
            assert value in text
        assert "BetP" in text

    def test_human_epsilon_line(self, combat_bba):
        report = report_for(combat_bba, TransformKind.PRA_PL, 0.0455)
        text = render_report(report, HUMAN)
        assert "epsilon: 0.331683" in text

    def test_machine_round_trip_bit_exact(self, combat_bba):
        report = report_for(combat_bba, TransformKind.PR_SC_P, 0.0455)
        record = render_report(report, MACHINE)
        again = parse_report_record(record)
        assert np.array_equal(
            again.distribution.probabilities, report.distribution.probabilities
        )
        assert again.method == report.method
        assert again.selected == report.selected
        assert again.iterations == report.iterations

    def test_unknown_format(self, combat_bba):
        report = report_for(combat_bba, TransformKind.BET_P, 0.0)
        with pytest.raises(ValueError):
            render_report(report, "yaml")
        with pytest.raises(ValueError):
            render_comparison([report], "yaml")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pic", None), ("pic", "x"), ("decision_threshold", None), ("selected", "a"),
            ("epsilon", "x"), ("iterations", "x"), ("iterations", True),
            ("selected", [1, None]), ("selected", [["F"]]),
        ],
    )
    def test_malformed_record_field(self, combat_bba, field, value):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.BET_P, 0.0455), MACHINE))
        if value is None:
            del record[field]
        else:
            record[field] = value
        with pytest.raises(ParseError, match=field):
            parse_report_record(json.dumps(record))

    def test_probabilities_whose_sum_overflows(self, combat_bba):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.BET_P, 0.0455), MACHINE))
        record["frame"], record["probabilities"] = ["a", "b"], [1e308, 1e308]
        with pytest.raises(ValidationError, match="^probabilities must have a finite sum$"):
            parse_report_record(json.dumps(record))

    def test_selected_must_be_a_list_of_strings(self, combat_bba):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.BET_P, 0.0455), MACHINE))
        record["selected"] = [1]
        with pytest.raises(ParseError) as err:
            parse_report_record(json.dumps(record))
        assert str(err.value) == "report record: field 'selected' must be a list of strings"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("probabilities", [1.0]),
            ("probabilities", ["x", 0.5, 0.25, 0.25]),
            ("method", "nope"),
            ("pic", 1.5),
            ("decision_threshold", 5),
            ("decision_threshold", -1),
            ("selected", ["zz"]),
            ("selected", ["H"]),
            ("iterations", -3),
            ("iterations", 0),
        ],
    )
    def test_invalid_record_value(self, combat_bba, field, value):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.BET_P, 0.0455), MACHINE))
        record[field] = value
        with pytest.raises(PignisticError):
            parse_report_record(json.dumps(record))

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (TransformKind.BET_P, "epsilon", "-5"),
            (TransformKind.PR_SC_P, "epsilon", "0.25"),
            (TransformKind.PRA_PL, "epsilon", "1e999"),
            (TransformKind.PRA_PL, "epsilon", "-1e999"),
            (TransformKind.BET_P, "iterations", "7"),
            (TransformKind.PRA_PL, "iterations", "3"),
            (TransformKind.PR_SC_P, "iterations", "0"),
        ],
    )
    def test_diagnostic_the_program_never_writes(self, combat_bba, kind, field, value):
        record = json.loads(render_report(report_for(combat_bba, kind, 0.0455), MACHINE))
        record[field] = "VALUE"  # spliced in as text: json.dumps cannot write 1e999
        text = json.dumps(record).replace('"VALUE"', value)
        with pytest.raises(ValidationError, match=f"report record: '{field}'"):
            parse_report_record(text)

    # Each diagnostic is present exactly on its method: absent on its own, it is refused.
    @pytest.mark.parametrize(
        "kind, field", [(TransformKind.PRA_PL, "epsilon"), (TransformKind.PR_SC_P, "iterations")]
    )
    def test_missing_diagnostic(self, combat_bba, kind, field):
        record = json.loads(render_report(report_for(combat_bba, kind, 0.0455), MACHINE))
        del record[field]
        with pytest.raises(ValidationError, match=f"^report record: '{field}'"):
            parse_report_record(json.dumps(record))

    def test_pic_of_other_probabilities(self):
        record = {
            "method": "PraPl", "frame": ["a", "b"], "probabilities": [0.5, 0.5], "pic": 0.7,
            "decision_threshold": 0.0, "selected": ["a", "b"], "epsilon": 0.0,
        }
        assert parse_report_record(json.dumps({**record, "pic": 0.0})).pic.value == 0.0
        with pytest.raises(ValidationError) as err:
            parse_report_record(json.dumps(record))
        assert str(err.value) == "report record: 'pic' is not the PIC of 'probabilities'"

    def test_pic_off_by_1e_9(self, combat_bba):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.BET_P, 0.0455), MACHINE))
        record["pic"] += 1e-9
        with pytest.raises(ValidationError, match="^report record: 'pic' is not the PIC"):
            parse_report_record(json.dumps(record))

    def test_integer_epsilon_too_large_for_a_float(self, combat_bba):
        record = json.loads(render_report(report_for(combat_bba, TransformKind.PRA_PL, 0.0455), MACHINE))
        record["epsilon"] = 10**400
        with pytest.raises(ValidationError) as err:
            parse_report_record(json.dumps(record))
        assert str(err.value) == "report record: 'epsilon' must be finite on PraPl, absent elsewhere"

    def test_negative_epsilon_within_the_sum_tolerance_round_trips(self):
        # masses summing to 1 + 5e-10 give SumBel > 1, so PraPl's epsilon is just below 0
        m = parse_bba_document(
            '{"frame": ["a", "b"], "masses": [{"elements": ["a"], "mass": 0.5},'
            ' {"elements": ["b"], "mass": 0.5000000005}]}'
        )
        report = report_for(m, TransformKind.PRA_PL, 0.0)
        assert -1e-9 < report.epsilon < 0.0
        again = parse_report_record(render_report(report, MACHINE))
        assert again.epsilon == report.epsilon


class TestRenderComparison:
    def test_contains_all_values(self, combat_bba):
        reports = [report_for(combat_bba, k, 0.0455) for k in TransformKind]
        text = render_comparison(reports, HUMAN)
        expected = [
            "0.398333", "0.343333", "0.153333", "0.105000",
            "0.402129", "0.352277", "0.139356", "0.106238",
            "0.454418", "0.360880", "0.117638", "0.067064",
            "0.517592", "0.405098", "0.030288", "0.047022",
            "0.542030", "0.386953", "0.032397", "0.038620",
        ]
        for value in expected:
            assert value in text

    # every line of the table: each row is its name left-aligned to the widest
    # name, then one cell per report right-aligned in 10
    def test_combat_table(self, combat_bba):
        reports = [report_for(combat_bba, k, 0.0455) for k in TransformKind]
        assert render_comparison(reports, HUMAN).splitlines() == [
            "hypothesis      BetP     PraPl      PrPl      PrBl     PrScP",
            "F           0.398333  0.402129  0.454418  0.517592  0.542030",
            "N           0.343333  0.352277  0.360880  0.405098  0.386953",
            "U           0.153333  0.139356  0.117638  0.030288  0.032397",
            "H           0.105000  0.106238  0.067064  0.047022  0.038620",
            "PIC         0.092643  0.100695  0.163811  0.309962  0.324722",
            "selected           4         4         4         3         2",
        ]

    def test_label_longer_than_hypothesis_widens_the_name_column(self):
        long = "longer than hypothesis"
        m = parse_bba_document(json.dumps({"frame": ["a", long], "masses": [
            {"elements": ["a"], "mass": 0.25}, {"elements": ["a", long], "mass": 0.75},
        ]}))
        reports = [report_for(m, k, 0.3) for k in (TransformKind.BET_P, TransformKind.PR_PL)]
        assert render_comparison(reports, HUMAN).splitlines() == [
            "hypothesis                  BetP      PrPl",
            "a                       0.625000  0.678571",
            "longer than hypothesis  0.375000  0.321429",
            "PIC                     0.045566  0.094072",
            "selected                       2         2",
        ]

    def test_machine_format_is_json(self, combat_bba):
        reports = [report_for(combat_bba, k, 0.0455) for k in TransformKind]
        parsed = json.loads(render_comparison(reports, MACHINE))
        assert [r["method"] for r in parsed] == [k.value for k in TransformKind]

    @staticmethod
    def betp_report(labels):
        m = parse_bba_document(json.dumps(
            {"frame": labels, "masses": [{"elements": labels, "mass": 1.0}]}
        ))
        return report_for(m, TransformKind.BET_P, 0.0)

    @pytest.mark.parametrize("fmt", [HUMAN, MACHINE])
    @pytest.mark.parametrize(
        "second", [["x", "y"], ["a", "b", "c"]], ids=["other-labels", "one-more-label"]
    )
    def test_reports_over_another_frame_are_rejected(self, fmt, second):
        reports = [self.betp_report(["a", "b"]), self.betp_report(second)]
        with pytest.raises(FrameMismatchError, match="frames differ"):
            render_comparison(reports, fmt)

    @pytest.mark.parametrize("fmt", [HUMAN, MACHINE])
    def test_no_reports_is_rejected(self, fmt):
        with pytest.raises(ValidationError):
            render_comparison([], fmt)

    def test_equal_frames_built_apart_are_accepted(self):
        reports = [self.betp_report(["a", "b"]), self.betp_report(["a", "b"])]
        assert render_comparison(reports, HUMAN).splitlines()[1:3] == [
            "a           0.500000  0.500000", "b           0.500000  0.500000",
        ]


def expected_record(report):
    """The record a report renders to, written out field by field."""
    record = {
        "method": report.method.value,
        "frame": list(report.distribution.frame.labels),
        "probabilities": report.distribution.probabilities.tolist(),
        "pic": report.pic.value,
        "decision_threshold": report.decision_threshold,
        "selected": list(report.selected),
    }
    if report.epsilon is not None:
        record["epsilon"] = report.epsilon
    if report.iterations is not None:
        record["iterations"] = report.iterations
    return record


class TestRecordFormat:
    """A machine record is one line of JSON holding every report field."""

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_report_record(self, combat_bba, kind):
        report = report_for(combat_bba, kind, 0.0455)
        text = render_report(report, MACHINE)
        assert "\n" not in text
        assert json.loads(text) == expected_record(report)
        assert expected_record(parse_report_record(text)) == expected_record(report)

    def test_comparison_record(self, combat_bba):
        reports = [report_for(combat_bba, k, 0.0455) for k in TransformKind]
        text = render_comparison(reports, MACHINE)
        assert "\n" not in text
        assert json.loads(text) == [expected_record(r) for r in reports]
