"""COCO-format annotation/detection ingestion, emission, and atomic writes.

Annotations use the standard COCO layout (`images`, `annotations`,
`categories`). Detection dumps are COCO results records
({image_id, category_id, bbox, score}) optionally tagged with the
`scale_factor` that produced them; dumps may be a bare JSON list or wrapped
in an object under a "detections" key. Unknown keys are ignored on read, so
every emitted artifact re-ingests losslessly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

from .geometry import BBox, Detection, Instance, ScaleRange
from .sampling import SnipEntry, SnipRangeTable


class DataFormatError(ValueError):
    """Malformed or referentially inconsistent input data."""


@dataclass(frozen=True)
class ImageInfo:
    id: int
    height: int
    width: int


@dataclass
class Dataset:
    images: list[ImageInfo]
    instances: list[Instance]
    categories: list[dict] = field(default_factory=list)

    def image_sizes(self) -> dict[int, tuple[int, int]]:
        return {img.id: (img.height, img.width) for img in self.images}

    def category_ids(self) -> list[int]:
        if self.categories:
            return sorted(c["id"] for c in self.categories)
        return sorted({inst.category_id for inst in self.instances})

    def instances_by_image(self) -> dict[int, list[Instance]]:
        grouped: dict[int, list[Instance]] = {img.id: [] for img in self.images}
        for inst in self.instances:
            grouped.setdefault(inst.image_id, []).append(inst)
        return grouped


def _require(record: dict, key: str, context: str):
    if key not in record:
        raise DataFormatError(f"{context}: missing field {key!r}")
    return record[key]


def dataset_from_dict(data: dict) -> Dataset:
    if not isinstance(data, dict):
        raise DataFormatError("annotation file must hold a JSON object")
    images = []
    seen_images: set[int] = set()
    for rec in data.get("images", []):
        img_id = int(_require(rec, "id", "image"))
        if img_id in seen_images:
            raise DataFormatError(f"image {img_id}: duplicate id")
        seen_images.add(img_id)
        height = int(_require(rec, "height", f"image {img_id}"))
        width = int(_require(rec, "width", f"image {img_id}"))
        if height < 1 or width < 1:
            raise DataFormatError(f"image {img_id}: non-positive size {height}x{width}")
        images.append(ImageInfo(img_id, height, width))

    categories = [
        {"id": int(_require(rec, "id", "category")), "name": str(rec.get("name", ""))}
        for rec in data.get("categories", [])
    ]
    categories.sort(key=lambda c: c["id"])
    cat_ids = {c["id"] for c in categories}

    instances = []
    seen_anns: set[int] = set()
    for rec in data.get("annotations", []):
        ann_id = int(_require(rec, "id", "annotation"))
        if ann_id in seen_anns:
            raise DataFormatError(f"annotation {ann_id}: duplicate id")
        seen_anns.add(ann_id)
        image_id = int(_require(rec, "image_id", f"annotation {ann_id}"))
        if image_id not in seen_images:
            raise DataFormatError(
                f"annotation {ann_id}: references missing image {image_id}"
            )
        category_id = int(_require(rec, "category_id", f"annotation {ann_id}"))
        if cat_ids and category_id not in cat_ids:
            raise DataFormatError(
                f"annotation {ann_id}: references missing category {category_id}"
            )
        bbox = _require(rec, "bbox", f"annotation {ann_id}")
        try:
            box = BBox(*(float(v) for v in bbox))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"annotation {ann_id}: bad bbox {bbox!r}: {exc}")
        try:
            instances.append(
                Instance(
                    bbox=box,
                    category_id=category_id,
                    iscrowd=bool(rec.get("iscrowd", 0)),
                    id=ann_id,
                    image_id=image_id,
                )
            )
        except ValueError as exc:
            raise DataFormatError(f"annotation {ann_id}: {exc}")
    return Dataset(images, instances, categories)


def dataset_to_dict(dataset: Dataset) -> dict:
    return {
        "images": [
            {"id": img.id, "height": img.height, "width": img.width}
            for img in dataset.images
        ],
        "annotations": [
            {
                "id": inst.id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "bbox": [inst.bbox.x, inst.bbox.y, inst.bbox.w, inst.bbox.h],
                "iscrowd": int(inst.iscrowd),
                "area": inst.bbox.area,
            }
            for inst in dataset.instances
        ],
        "categories": list(dataset.categories),
    }


def load_annotations(path: str | os.PathLike) -> Dataset:
    return dataset_from_dict(load_json(path))


def detection_records(data) -> list[dict]:
    if isinstance(data, dict):
        data = data.get("detections")
    if not isinstance(data, list):
        raise DataFormatError(
            "detection file must be a JSON list or an object with a 'detections' list"
        )
    return data


def _detection_from_record(rec: dict, index: int) -> tuple[Detection, float | None]:
    context = f"detection #{index}"
    bbox = _require(rec, "bbox", context)
    try:
        box = BBox(*(float(v) for v in bbox))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{context}: bad bbox {bbox!r}: {exc}")
    try:
        det = Detection(
            bbox=box,
            category_id=int(_require(rec, "category_id", context)),
            score=float(_require(rec, "score", context)),
            image_id=int(_require(rec, "image_id", context)),
            resolution_index=int(rec.get("resolution_index", -1)),
        )
    except ValueError as exc:
        raise DataFormatError(f"{context}: {exc}")
    factor = rec.get("scale_factor")
    if factor is not None and not (isinstance(factor, (int, float)) and 0 < factor < math.inf):
        raise DataFormatError(
            f"{context}: scale_factor must be a finite positive number, got {factor!r}"
        )
    return det, None if factor is None else float(factor)


def load_detection_records(path: str | os.PathLike) -> list[dict]:
    return detection_records(load_json(path))


def load_detections(path: str | os.PathLike) -> list[Detection]:
    """Flat detection list; scale_factor tags are checked, then dropped."""
    records = load_detection_records(path)
    return [_detection_from_record(rec, i)[0] for i, rec in enumerate(records)]


def tagged_detections_from_records(
    records: list[dict],
) -> list[tuple[float, list[Detection]]]:
    """Detections grouped by their scale_factor tag, largest factor first.

    Each group's detections are assigned that group's resolution index.
    Untagged records are rejected: fusion needs to know the source resolution.
    """
    grouped: dict[float, list[Detection]] = {}
    for i, rec in enumerate(records):
        det, factor = _detection_from_record(rec, i)
        if factor is None:
            raise DataFormatError(f"detection #{i}: missing scale_factor tag")
        grouped.setdefault(factor, []).append(det)
    out = []
    for index, factor in enumerate(sorted(grouped, reverse=True)):
        dets = [
            Detection(d.bbox, d.category_id, d.score, d.image_id, index)
            for d in grouped[factor]
        ]
        out.append((factor, dets))
    return out


def load_tagged_detections(path: str | os.PathLike) -> list[tuple[float, list[Detection]]]:
    return tagged_detections_from_records(load_detection_records(path))


def detections_to_records(
    dets: list[Detection], factor: float | None = None
) -> list[dict]:
    records = []
    for d in dets:
        rec = {
            "image_id": d.image_id,
            "category_id": d.category_id,
            "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
            "score": d.score,
            "resolution_index": d.resolution_index,
        }
        if factor is not None:
            rec["scale_factor"] = factor
        records.append(rec)
    return records


def load_oracle_table(path: str | os.PathLike) -> dict[tuple[float, float], dict]:
    """Range -> metrics lookup: [{"range": [lower, upper], "ap": ..., ...}]."""
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list):
        raise DataFormatError(
            "lookup file must be a JSON list or an object with an 'entries' list"
        )
    table = {}
    for i, rec in enumerate(data):
        pair = _require(rec, "range", f"lookup entry #{i}")
        try:
            rng = ScaleRange.from_pair(pair)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"lookup entry #{i}: bad range {pair!r}: {exc}")
        if "ap" not in rec:
            raise DataFormatError(f"lookup entry #{i}: missing field 'ap'")
        table[(rng.lower, rng.upper)] = {k: v for k, v in rec.items() if k != "range"}
    return table


def load_snip_table(path: str | os.PathLike) -> SnipRangeTable:
    """Table entries: [{"resolution": [h, w], "valid_range": [lo, hi], "scale_factor": f?}]."""
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list) or not data:
        raise DataFormatError("range table must be a non-empty JSON list of entries")
    entries = []
    for i, rec in enumerate(data):
        res = _require(rec, "resolution", f"table entry #{i}")
        rng = _require(rec, "valid_range", f"table entry #{i}")
        factor = rec.get("scale_factor")
        try:
            entries.append(
                SnipEntry(
                    height=int(res[0]),
                    width=int(res[1]),
                    lower=float(rng[0]),
                    upper=math.inf if rng[1] is None else float(rng[1]),
                    factor=None if factor is None else float(factor),
                )
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise DataFormatError(f"table entry #{i}: {exc}")
    return SnipRangeTable(tuple(entries))


def load_json(path: str | os.PathLike):
    """Parse a JSON file, wrapping syntax errors in DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}")


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | os.PathLike, obj) -> None:
    """Canonical, reproducible JSON: sorted keys, fixed layout, no NaN/inf."""
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_csv(path: str | os.PathLike, header: tuple, rows: list[tuple]) -> None:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)
    _atomic_write(path, buf.getvalue())
