import json
import re

import pytest

from chainphase.fileio import (
    chain_from_text,
    cochain_from_text,
    data_text,
    golden_trace_from_text,
    load_cochain,
    load_golden_trace,
    load_process,
    load_psi3,
    load_term_file,
    process_from_text,
)
from chainphase.simplicial import Chain, Cochain


class TestCochainDocuments:
    def test_parse(self):
        c = cochain_from_text(
            '{"degree": 1, "modulus": 3, "values": {"0,2": 1, "1,2": -1}}')
        assert c.degree == 1 and c.modulus == 3
        assert c.value((0, 2)) == 1

    def test_modulus_defaults_to_integers(self):
        c = cochain_from_text('{"degree": 2, "values": {"0,1,2": 5}}')
        assert c.modulus == 0 and c.value((0, 1, 2)) == 5

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            cochain_from_text('{"values": {}}')
        with pytest.raises(ValueError, match="values"):
            cochain_from_text('{"degree": 1}')

    @pytest.mark.parametrize("doc,field", [
        ('{"degree": 1, "values": {"0,1": 1.5}}', "values"),
        ('{"degree": 1, "values": {"0,1": "1"}}', "values"),
        ('{"degree": 1, "values": {"0,1": true}}', "values"),
        ('{"degree": 1, "modulus": 3.5, "values": {}}', "modulus"),
        ('{"degree": 1, "modulus": false, "values": {}}', "modulus"),
        ('{"degree": "1", "values": {}}', "degree"),
        ('{"degree": 1.0, "values": {}}', "degree"),
    ])
    def test_only_json_integers_accepted(self, doc, field):
        # Nothing is truncated or converted: 1.5 must not read as 1.
        with pytest.raises(ValueError, match=f"{field}.*JSON integer"):
            cochain_from_text(doc)
        with pytest.raises(ValueError, match="JSON integer"):
            chain_from_text(doc.replace('"values"', '"terms"'))

    @pytest.mark.parametrize("key", [
        "0,1_0", " 1, 2 ", "0, 1", "0,\u0663", "0,,1", ",0", "0,", "",
        "+1,2", "-1,2", "0,1\n",
    ])
    def test_only_digit_runs_accepted_as_keys(self, key):
        # int() reads each of these (or a part of it) leniently: "0,1_0"
        # once gave the simplex (0, 10) and "0,\u0663" (Arabic-Indic
        # three) gave (0, 3).
        doc = '{"degree": 1, "values": {%s: 1}}' % json.dumps(key)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            cochain_from_text(doc)
        with pytest.raises(ValueError, match="bad simplex key"):
            chain_from_text(doc.replace('"values"', '"terms"'))

    @pytest.mark.parametrize("doc", ['[1, 2]', '{"degree": 1, "values": [1]}'])
    def test_non_object_rejected(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            cochain_from_text(doc)

    def test_cochain_documents(self):
        c = cochain_from_text('{"degree": 1, "modulus": 5, "values": '
                              '{"0,1": 2, "2,4": -1, "1,3": 1}}')
        assert c == Cochain(1, {(0, 1): 2, (2, 4): -1, (1, 3): 1}, 5)

    def test_chain_documents(self):
        a = chain_from_text('{"degree": 2, "terms": {"0,1,2": 1}}')
        assert a == Chain(2, {(0, 1, 2): 1})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"degree": 0, "values": {"3": 1}}')
        assert load_cochain(path) == Cochain(0, {(3,): 1})


class TestProcessFiles:
    def test_grammar(self):
        text = """
        # exchange, rightmost first
        + 0 2
        - 0,3   # commas work too
        +1 2
        """
        assert process_from_text(text) == [
            (1, (0, 2)), (-1, (0, 3)), (1, (1, 2))]

    def test_sign_required(self):
        with pytest.raises(ValueError, match="start with"):
            process_from_text("0 1\n")

    def test_ascending_required(self):
        with pytest.raises(ValueError, match="ascending"):
            process_from_text("+ 1 0\n")
        with pytest.raises(ValueError, match="ascending"):
            process_from_text("+\n")

    def test_bad_vertex_id(self):
        with pytest.raises(ValueError, match="line 1"):
            process_from_text("+ a b\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="no steps"):
            process_from_text("# nothing here\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("+ 0 1\n- 0 1\n")
        assert load_process(path) == [(1, (0, 1)), (-1, (0, 1))]


class TestGoldenData:
    def test_term_files_have_expected_shapes(self):
        terms = load_term_file("p1_b3.txt")
        assert len(terms) == 19
        assert all(coef in (1, -1) for coef, _slots in terms)
        phi = load_term_file("phi_12312_deg3.txt")
        assert len(phi) == 9
        assert all(len(slots) == 3 for _coef, slots in phi)

    def test_big_term_list_shares_each_slot(self):
        terms = load_term_file("d3_6_q5.txt")
        # One tuple object per distinct position ...
        slots = [slot for _coef, slots in terms for slot in slots]
        assert len({id(slot) for slot in slots}) == len(set(slots)) == 184
        # ... and the same list a plain line-by-line parse gives.
        plain = []
        for raw in data_text("d3_6_q5.txt").splitlines():
            if raw.strip() and not raw.startswith("#"):
                head, *keys = raw.split("|")
                plain.append((int(head), tuple(
                    tuple(int(v) for v in key.split(",")) for key in keys)))
        assert terms == plain

    def test_psi3_listing_keys(self):
        psi3 = load_psi3()
        assert set(psi3) == {0, 1, 2, 4, 6}
        assert psi3[0] == {(1, 2, 3): 1}
        # every listed word has coefficient +1 and n+3 letters
        for n, words in psi3.items():
            assert all(len(w) == n + 3 for w in words)
            assert set(words.values()) == {1}

    def test_packaged_trace(self):
        rows = load_golden_trace()
        assert len(rows) == 56
        signs = {sign for sign, _cell, _state in rows}
        assert signs == {1, -1}
        for _sign, cell, state in rows:
            assert len(cell) == 4
            assert state.degree == 2
        # the word is closed: the final state is the vacuum
        assert not rows[-1][2]

    def test_trace_rows_must_be_numbered_in_order(self):
        text = "2 + 0145 : +014 -015 +045\n"
        with pytest.raises(ValueError, match="out of order"):
            golden_trace_from_text(text)

    def test_trace_from_explicit_path(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 + 0145 : +014 -015 +045\n"
                        "2 - 0145 : 0\n")
        rows = load_golden_trace(path)
        assert len(rows) == 2
        assert rows[0][1] == (0, 1, 4, 5)
        assert rows[1] == (-1, (0, 1, 4, 5), Chain(2, {}))

    def test_data_text_reads_packaged_files(self):
        assert "e0" in data_text("psi3.txt")
        with pytest.raises(FileNotFoundError):
            data_text("does_not_exist.txt")
