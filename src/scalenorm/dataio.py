"""COCO-format annotation/detection ingestion, emission, and atomic writes.

Annotations use the standard COCO layout (`images`, `annotations`,
`categories`). Detection dumps are COCO results records ({image_id,
category_id, bbox, score}, maybe a resolution_index and the `scale_factor` that
produced them), a bare JSON list or under a "detections" key; they are checked
a column at a time into the detection table, and one writer writes records
from a table. Unknown keys are ignored on read, so every emitted artifact
re-ingests losslessly. Every field is read by one rule (`KINDS`), naming the
record and field on error; an id must be within 2**53 and a number finite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .evaluation import _HEADLINE, EvalResult
from .geometry import (
    _ID_BOUND, _RESOLUTION, BBox, Detection, Instance, ScaleRange, _detection_table, _detections,
    _exact_id)
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


_REQUIRED = object()
_NUMBER = frozenset((int, float))


def _float(value: int | float) -> float:
    """`float(value)`, an integer past float range reading as ±inf: not a finite number."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# The rule for each kind of JSON value, for data files and config keys alike:
# kind -> (what the value must be, test). A bool is never an integer or a number.
KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in _NUMBER and math.isfinite(_float(v))),
    bool: ("0, 1, true or false", lambda v: type(v) in (bool, int) and v in (0, 1)),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list", lambda v: type(v) is list),
    dict: ("an object", lambda v: type(v) is dict),
}


def _field(rec: dict, key: str, kind: type, context: str, default=_REQUIRED):
    """`rec[key]` checked against `KINDS[kind]` and given as a `kind`, or
    `default` when the key is absent. Errors name the record (`context`) and
    the field once."""
    try:
        value = rec[key]
    except KeyError:
        if default is _REQUIRED:
            raise DataFormatError(f"{context}: missing field {key!r}") from None
        return default
    except TypeError:  # a list, string, number or null where a record belongs
        raise DataFormatError(f"{context} must be an object, got {rec!r:.60}") from None
    expected, test = KINDS[kind]
    if not test(value):
        raise DataFormatError(f"{context}: {key} must be {expected}, got {value!r}")
    return value if type(value) is kind else kind(value)


def _id(rec: dict, key: str, context: str, default=_REQUIRED) -> int:
    """An id or index: an integer that float64 holds exactly, as the
    detection table stores it."""
    return _exact_id(f"{context}: {key}", _field(rec, key, int, context, default), DataFormatError)


def _pair(rec: dict, key: str, kind: type, context: str, open_end: bool = False) -> tuple:
    """Two-item list field of `kind`s; with `open_end` the second may be null
    (an unbounded upper end, given as math.inf)."""
    pair = _field(rec, key, list, context)
    expected, test = KINDS[kind]
    if len(pair) != 2 or not test(pair[0]) or not (
        test(pair[1]) or (open_end and pair[1] is None)
    ):
        raise DataFormatError(f"{context}: {key} must be two items, each {expected}, got {pair!r}")
    return kind(pair[0]), math.inf if pair[1] is None else kind(pair[1])


def _box(rec: dict, context: str) -> BBox:
    bbox = _field(rec, "bbox", list, context)
    if len(bbox) != 4 or not _NUMBER.issuperset(map(type, bbox)):
        raise DataFormatError(f"{context}: bbox must be four numbers [x, y, w, h], got {bbox!r}")
    return _build(context, BBox, *map(_float, bbox))


def _build(context: str, make, *args):
    """`make(*args)`, with its ValueError re-raised naming the record."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DataFormatError(f"{context}: {exc}") from None


def dataset_from_dict(data: dict) -> Dataset:
    images = []
    seen_images: set[int] = set()
    for i, rec in enumerate(_field(data, "images", list, "annotation file", [])):
        img_id = _id(rec, "id", f"image #{i}")
        if img_id in seen_images:
            raise DataFormatError(f"image {img_id}: duplicate id")
        seen_images.add(img_id)
        height = _field(rec, "height", int, f"image {img_id}")
        width = _field(rec, "width", int, f"image {img_id}")
        if height < 1 or width < 1:
            raise DataFormatError(f"image {img_id}: non-positive size {height}x{width}")
        images.append(ImageInfo(img_id, height, width))

    categories = [
        {"id": _id(rec, "id", f"category #{i}"),
         "name": _field(rec, "name", str, f"category #{i}", "")}
        for i, rec in enumerate(_field(data, "categories", list, "annotation file", []))
    ]
    categories.sort(key=lambda c: c["id"])
    cat_ids = {c["id"] for c in categories}

    instances = []
    seen_anns: set[int] = set()
    for i, rec in enumerate(_field(data, "annotations", list, "annotation file", [])):
        ann_id = _field(rec, "id", int, f"annotation #{i}")
        if ann_id in seen_anns:
            raise DataFormatError(f"annotation {ann_id}: duplicate id")
        seen_anns.add(ann_id)
        context = f"annotation {ann_id}"
        image_id = _id(rec, "image_id", context)
        if image_id not in seen_images:
            raise DataFormatError(f"{context}: references missing image {image_id}")
        category_id = _id(rec, "category_id", context)
        if cat_ids and category_id not in cat_ids:
            raise DataFormatError(f"{context}: references missing category {category_id}")
        box = _box(rec, context)
        iscrowd = _field(rec, "iscrowd", bool, context, False)
        instances.append(_build(context, Instance, box, category_id, iscrowd, ann_id, image_id))
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


def _records(path: str | os.PathLike, key: str, what: str) -> list:
    """The records of a JSON file: a bare list, or the list under `key`."""
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get(key)
    if not isinstance(data, list):
        raise DataFormatError(f"{what} must be a JSON list or an object with a {key!r} list")
    return data


def _scale_factor(rec: dict, context: str, default=None) -> float | None:
    factor = _field(rec, "scale_factor", float, context, default)
    if factor is not None and factor <= 0:
        raise DataFormatError(f"{context}: scale_factor must be positive, got {factor!r}")
    return factor


def _detection(rec: dict, context: str) -> Detection:
    return _build(context, Detection, _box(rec, context), _id(rec, "category_id", context),
                  _field(rec, "score", float, context), _id(rec, "image_id", context),
                  _id(rec, "resolution_index", context, -1))


def _detection_rows(records: list, tagged: bool,
                    file_order: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The detection table of `records` and each row's scale_factor (1.0 if none).
    Untagged rows keep file order and their resolution index. Tagged, resolution k is
    the k-th largest factor, and factor groups run largest first, each in file order,
    unless the rows keep `file_order`."""
    rows = _column_rows(records, tagged)
    if rows is None:  # the per-record rules raise the first fault; tagged, all tags go first
        pairs = [(rec, f"detection #{i}") for i, rec in enumerate(records)]
        for rec, context in pairs if tagged else ():
            _scale_factor(rec, context, _REQUIRED)
        checked = [(_scale_factor(*pair, 1.0), _detection(*pair)) for pair in pairs]
        rows = _detection_table([d for _, d in checked]), np.array([f for f, _ in checked])
    table, factors = rows
    if tagged:
        ranked = factors[order := np.argsort(-factors, kind="stable")]
        table[order, _RESOLUTION] = np.cumsum(np.diff(ranked, prepend=ranked[:1]) != 0)
        if not file_order:
            table, factors = table[order], ranked
    return table, factors


def _column_rows(records: list, tagged: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """`_detection_rows` in file order, checked a column at a time: the `KINDS`
    tests and the id bound on lists, box and score checks on arrays; or None."""
    n = len(records)
    if not {dict}.issuperset(map(type, records)):
        return None
    ints = [rec.get(key, default) for key, default in (  # the category, resolution, image columns
        ("category_id", None), ("resolution_index", -1), ("image_id", None)) for rec in records]
    flat = [v for rec in records if type(b := rec.get("bbox")) is list and len(b) == 4 for v in b]
    numbers = flat + [rec.get("score") for rec in records] + [
        rec.get("scale_factor", None if tagged else 1.0) for rec in records]
    if not (len(flat) == 4 * n and {int}.issuperset(map(type, ints))
            and max(map(abs, ints), default=0) <= _ID_BOUND
            and _NUMBER.issuperset(map(type, numbers))):
        return None
    try:
        values = np.array(numbers, float)
    except OverflowError:  # an integer past float range
        return None
    box, score, factors = values[:4 * n].reshape(n, 4), values[4 * n:5 * n], values[5 * n:]
    if (np.isfinite(values).all() and (box[:, :2] >= 0).all() and (box[:, 2:] > 0).all()
            and ((score >= 0) & (score <= 1)).all() and (factors > 0).all()):
        return np.column_stack((box, score, np.array(ints, float).reshape(3, n).T)), factors


def load_detection_records(path: str | os.PathLike) -> list[dict]:
    return _records(path, "detections", "detection file")


def load_detections(path: str | os.PathLike) -> list[Detection]:
    """Flat detection list; scale_factor tags are checked, then dropped."""
    return _detections(_detection_rows(load_detection_records(path), False)[0])


def tagged_detections_from_records(
    records: list[dict],
) -> list[tuple[float, list[Detection]]]:
    """Detections grouped by their scale_factor tag, largest factor first.

    Each group's detections are assigned that group's resolution index:
    resolution k is the k-th largest factor, as in `PyramidSpec`.
    Untagged records are rejected: fusion needs to know the source resolution.
    """
    table, factors = _detection_rows(records, True)
    return [(f, _detections(table[factors == f])) for f in dict.fromkeys(factors.tolist())]


def detections_to_records(dets: list[Detection], factor: float | None = None) -> list[dict]:
    return _table_records(_detection_table(dets), factor)


def _table_records(table: np.ndarray, factor: float | None = None) -> list[dict]:
    """The COCO results records of a detection table's rows, each tagged with
    `scale_factor` if a factor is given."""
    tag = {} if factor is None else {"scale_factor": factor}
    return [{"image_id": int(image), "category_id": int(category), "bbox": [x, y, w, h],
             "score": score, "resolution_index": int(resolution), **tag}
            for x, y, w, h, score, category, resolution, image in table.tolist()]


def load_oracle_table(path: str | os.PathLike) -> dict[tuple[float, float], EvalResult]:
    """Range -> metrics lookup: [{"range": [lower, upper], "ap": ..., ...}] with
    `EvalResult` fields, an absent one reading -1; `per_category` maps
    category-id strings to numbers."""
    table, seen = {}, {}
    for i, rec in enumerate(_records(path, "entries", "lookup file")):
        context = f"lookup entry #{i}"
        lower, upper = _pair(rec, "range", float, context, open_end=True)
        _build(context, ScaleRange, lower, upper)
        if (first := seen.setdefault((lower, upper), i)) != i:
            raise DataFormatError(f"{context}: range [{lower}, {upper}] repeats entry #{first}")
        ap = _field(rec, "ap", float, context)
        rest = {name: _field(rec, name, float, context, -1.0) for name in _HEADLINE[1:]}
        per_category = _field(rec, "per_category", dict, context, {})
        if not all(k.isdecimal() and KINDS[float][1](v) for k, v in per_category.items()):
            raise DataFormatError(f"{context}: per_category must map category ids to "
                                  f"finite numbers, got {per_category!r}")
        per_category = {int(k): float(v) for k, v in per_category.items()}
        table[(lower, upper)] = EvalResult(ap, **rest, per_category=per_category)
    return table


def load_snip_table(path: str | os.PathLike) -> SnipRangeTable:
    """Table entries: [{"resolution": [h, w], "valid_range": [lo, hi], "scale_factor": f?}]."""
    entries = []
    for i, rec in enumerate(_records(path, "entries", "range table")):
        context = f"table entry #{i}"
        height, width = _pair(rec, "resolution", int, context)
        lower, upper = _pair(rec, "valid_range", float, context, open_end=True)
        factor = _scale_factor(rec, context)
        entries.append(_build(context, SnipEntry, height, width, lower, upper, factor))
    return SnipRangeTable(tuple(entries))


def load_json(path: str | os.PathLike):
    """Parse a JSON file, wrapping syntax and encoding errors in DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}")


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the target, not the deleted temporary file
            raise type(exc)(f"cannot write {os.fspath(path)!r}: {exc.strerror}") from None
        raise


_SCALARS = (str, int, float, type(None))  # a bool is an int
_LEAVES = json.JSONEncoder(allow_nan=False, separators=("\n", ":"))  # one leaf per line


def _record_list(obj, indent: str) -> str | None:
    """`obj` laid out as by `json.dumps` at `indent` if it is a non-empty list of
    dicts with one non-empty set of str keys, each holding scalars or lists of
    scalars of one length, else None: one `%` template, one encoder call per key."""
    first = obj[0] if type(obj) is list and obj and type(obj[0]) is dict else None
    if not first or not all(type(k) is str for k in first) or not all(
            type(rec) is dict and rec.keys() == first.keys() for rec in obj):
        return None
    inner, fields, slots = indent + "    ", [], []
    for key in sorted(first):
        column = [rec[key] for rec in obj]
        width = len(column[0]) if type(column[0]) is list else None
        if width is not None:
            if not all(type(v) is list and len(v) == width for v in column):
                return None
            column = [x for v in column for x in v]
        if not all(issubclass(t, _SCALARS) for t in set(map(type, column))):
            return None
        texts = _LEAVES.encode(column)[1:-1].split("\n")
        slots.extend([texts] if width is None else [texts[j::width] for j in range(width)])
        value = "%s" if width is None else (
            "[" + ",".join([f"\n{inner}  %s"] * width) + f"\n{inner}]" if width else "[]")
        fields.append(f"{inner}{_LEAVES.encode(key).replace('%', '%%')}: {value}")
    template = f"{indent}  {{\n" + ",\n".join(fields) + f"\n{indent}  }}"
    rows = [template % row for row in (zip(*slots) if slots else [()] * len(obj))]
    return "[\n" + ",\n".join(rows) + f"\n{indent}]"


def _json(obj, indent: str = "") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)` nested at
    `indent`. A dict that directly holds a record list is walked key by key;
    the rest is `json.dumps`, re-indented (a JSON string holds no newline)."""
    inner = indent + "  "
    texts = {k: _record_list(v, inner) for k, v in obj.items()} if type(obj) is dict else {}
    if any(texts.values()) and all(type(k) is str for k in obj):
        return "{\n" + ",\n".join(f"{inner}{_LEAVES.encode(k)}: {texts[k] or _json(obj[k], inner)}"
                                   for k in sorted(obj)) + f"\n{indent}}}"
    return _record_list(obj, indent) or json.dumps(
        obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def write_json(path: str | os.PathLike, obj) -> None:
    """Byte for byte `json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`."""
    _atomic_write(path, _json(obj) + "\n")


def write_csv(path: str | os.PathLike, header: tuple, rows: list[tuple]) -> None:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows(rows)
    _atomic_write(path, buf.getvalue())
