import math

import pytest

from scalenorm import BBox, DataFormatError, Detection, generate_dataset
from scalenorm.dataio import (
    dataset_from_dict,
    dataset_to_dict,
    detections_to_records,
    load_annotations,
    load_detection_records,
    load_detections,
    load_oracle_table,
    load_snip_table,
    tagged_detections_from_records,
    write_csv,
    write_json,
)

from conftest import assert_as_constructed

MINIMAL = {
    "images": [{"id": 1, "height": 480, "width": 640}],
    "annotations": [
        {"id": 10, "image_id": 1, "category_id": 1, "bbox": [5, 6, 30, 40], "iscrowd": 0}
    ],
    "categories": [{"id": 1, "name": "object"}],
}


class TestAnnotationIngest:
    def test_minimal_valid(self):
        ds = dataset_from_dict(MINIMAL)
        assert len(ds.instances) == 1
        inst = ds.instances[0]
        assert inst.bbox == BBox(5, 6, 30, 40)
        assert inst.id == 10 and inst.image_id == 1
        assert ds.image_sizes() == {1: (480, 640)}

    def test_dangling_image_reference(self):
        data = dict(MINIMAL, annotations=[dict(MINIMAL["annotations"][0], image_id=42)])
        with pytest.raises(DataFormatError, match="annotation 10.*image 42"):
            dataset_from_dict(data)

    def test_zero_width_box_rejected(self):
        data = dict(
            MINIMAL,
            annotations=[dict(MINIMAL["annotations"][0], bbox=[5, 6, 0, 40])],
        )
        with pytest.raises(DataFormatError, match="annotation 10"):
            dataset_from_dict(data)

    def test_unknown_category_rejected(self):
        data = dict(MINIMAL, annotations=[dict(MINIMAL["annotations"][0], category_id=9)])
        with pytest.raises(DataFormatError, match="annotation 10.*category 9"):
            dataset_from_dict(data)

    def test_duplicate_annotation_id_rejected(self):
        data = dict(MINIMAL, annotations=MINIMAL["annotations"] * 2)
        with pytest.raises(DataFormatError, match="duplicate id"):
            dataset_from_dict(data)

    def test_ids_up_to_2_to_the_53_kept(self):
        big = 2**53
        data = {
            "images": [dict(MINIMAL["images"][0], id=big)],
            "annotations": [dict(MINIMAL["annotations"][0], image_id=big, category_id=big)],
            "categories": [{"id": big, "name": "object"}],
        }
        inst = dataset_from_dict(data).instances[0]
        assert (inst.image_id, inst.category_id) == (big, big)

    @pytest.mark.parametrize("records, field, context", [
        ("images", "id", "image #0"),
        ("categories", "id", "category #0"),
        ("annotations", "image_id", "annotation 10"),
        ("annotations", "category_id", "annotation 10"),
    ])
    def test_id_past_float64_names_record_and_field(self, records, field, context):
        """The float64 detection table would round an id beyond 2**53."""
        data = dict(MINIMAL, **{records: [dict(MINIMAL[records][0], **{field: 2**53 + 1})]})
        with pytest.raises(DataFormatError) as err:
            dataset_from_dict(data)
        assert str(err.value) == (
            f"{context}: {field} must be at most 2**53 in magnitude, got 9007199254740993"
        )

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_annotations(path)

    def test_round_trip(self, tmp_path):
        ds = generate_dataset(10, 3, crowd_fraction=0.2)
        path = tmp_path / "annotations.json"
        write_json(path, dataset_to_dict(ds))
        back = load_annotations(path)
        assert back.images == ds.images
        assert back.instances == ds.instances
        assert back.categories == ds.categories


class TestDetectionDumps:
    def test_round_trip_flat(self, tmp_path):
        dets = [
            Detection(BBox(1, 2, 3, 4), 1, 0.5, 1, 0),
            Detection(BBox(5, 6, 7, 8), 2, 0.25, 2, 1),
        ]
        path = tmp_path / "dets.json"
        write_json(path, {"detections": detections_to_records(dets)})
        assert load_detections(path) == dets

    def test_loaded_records_are_as_constructed(self, tmp_path):
        records = [
            {"image_id": 2**53, "category_id": 3, "bbox": [0, -0.0, 1e-300, 7.5], "score": 1},
            {"image_id": -4, "category_id": 1, "bbox": [2.5, 3, 4, 5], "score": 0,
             "resolution_index": 6, "scale_factor": 0.5},
        ]
        path = tmp_path / "dets.json"
        write_json(path, records)
        loaded = load_detections(path)
        assert [(d.bbox.y, d.image_id, d.resolution_index) for d in loaded] == [
            (0.0, 2**53, -1), (3.0, -4, 6)]
        assert_as_constructed(loaded)
        for rec in records:
            rec.setdefault("scale_factor", 2.0)
        assert_as_constructed([d for _, dets in tagged_detections_from_records(records)
                               for d in dets])

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "dets.json"
        write_json(path, detections_to_records([Detection(BBox(1, 2, 3, 4), 1, 0.5, 1)]))
        assert len(load_detections(path)) == 1

    def test_tagged_grouping_sorted_by_factor(self, tmp_path):
        records = detections_to_records(
            [Detection(BBox(1, 2, 3, 4), 1, 0.5, 1)], factor=0.5
        ) + detections_to_records([Detection(BBox(2, 2, 3, 4), 1, 0.6, 1)], factor=2.0)
        path = tmp_path / "dets.json"
        write_json(path, records)
        tagged = tagged_detections_from_records(load_detection_records(path))
        assert [factor for factor, _ in tagged] == [2.0, 0.5]
        assert tagged[0][1][0].resolution_index == 0
        assert tagged[1][1][0].resolution_index == 1

    def test_untagged_records_rejected_for_fusion(self):
        records = detections_to_records([Detection(BBox(1, 2, 3, 4), 1, 0.5, 1)])
        with pytest.raises(DataFormatError, match="scale_factor"):
            tagged_detections_from_records(records)

    def test_bad_score_names_record(self, tmp_path):
        path = tmp_path / "dets.json"
        write_json(
            path,
            [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 2, 2], "score": 1.7}],
        )
        with pytest.raises(DataFormatError, match="detection #0"):
            load_detections(path)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0, -1.0, "2", True])
    def test_bad_scale_factor_names_record(self, factor):
        records = detections_to_records([Detection(BBox(1, 2, 3, 4), 1, 0.5, 1)] * 2, 1.0)
        records[1]["scale_factor"] = factor
        with pytest.raises(DataFormatError, match="detection #1: scale_factor"):
            tagged_detections_from_records(records)


class TestTables:
    def test_oracle_table(self, tmp_path):
        path = tmp_path / "table.json"
        write_json(
            path,
            [
                {"range": [0, 640], "ap": 37.4},
                {"range": [16, None], "ap": 38.2},
            ],
        )
        assert load_oracle_table(path) == {(0.0, 640.0): 37.4, (16.0, math.inf): 38.2}

    def test_oracle_table_requires_ap(self, tmp_path):
        path = tmp_path / "table.json"
        write_json(path, [{"range": [0, 640]}])
        with pytest.raises(DataFormatError, match="ap"):
            load_oracle_table(path)

    @pytest.mark.parametrize("pair", [[640, 16], [5], [5, 10, 20], [-1, 10], None])
    def test_oracle_table_bad_range_names_entry(self, tmp_path, pair):
        path = tmp_path / "table.json"
        write_json(path, [{"range": [0, 640], "ap": 37.4}, {"range": pair, "ap": 38.0}])
        with pytest.raises(DataFormatError, match="lookup entry #1: "):
            load_oracle_table(path)

    @pytest.mark.parametrize("field, value", [("resolution", [800]), ("valid_range", [40])])
    def test_snip_table_short_pair_names_entry(self, tmp_path, field, value):
        entry = {"resolution": [800, 1200], "valid_range": [40, 160], field: value}
        path = tmp_path / "snip.json"
        write_json(path, [entry])
        with pytest.raises(DataFormatError, match="table entry #0: "):
            load_snip_table(path)

    @pytest.mark.parametrize(
        "field, value",
        [("resolution", [800.5, 1200]), ("valid_range", ["40", 160]), ("valid_range", [40, True])],
    )
    def test_snip_table_non_number_names_entry_and_field(self, tmp_path, field, value):
        entry = {"resolution": [800, 1200], "valid_range": [40, 160], field: value}
        path = tmp_path / "snip.json"
        write_json(path, [entry])
        with pytest.raises(DataFormatError, match=f"table entry #0: {field} must be two items"):
            load_snip_table(path)

    def test_snip_table(self, tmp_path):
        path = tmp_path / "snip.json"
        write_json(
            path,
            [
                {"resolution": [800, 1200], "valid_range": [40, 160]},
                {"resolution": [480, 800], "valid_range": [120, None], "scale_factor": 1.0},
            ],
        )
        table = load_snip_table(path)
        assert table.entries[0].upper == 160.0
        assert table.entries[1].upper == math.inf
        assert table.entries[1].factor == 1.0


class TestWriters:
    def test_write_json_deterministic(self, tmp_path):
        payload = {"b": [1.5, 2.25], "a": {"nested": True}}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        write_json(p1, payload)
        write_json(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_json_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"value": math.inf})

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("level", "count"), [(2, 5), (3, 0)])
        assert path.read_text() == "level,count\n2,5\n3,0\n"

    def test_no_partial_files_on_success(self, tmp_path):
        write_json(tmp_path / "ok.json", {"x": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_failed_replace_leaves_no_partial_file(self, tmp_path):
        """The target is a directory, so the final rename fails: the temporary
        file goes and the directory keeps what it held."""
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept.txt").write_text("kept")
        with pytest.raises(OSError):
            write_json(target, {"x": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept"
