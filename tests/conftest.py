from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scalenorm import BBox, Detection, Instance
from scalenorm.geometry import to_corners

# Published range -> AP pairs used by the search fixtures.
RANGE_AP_TABLE = {
    (0.0, 640.0): 37.4,
    (16.0, 640.0): 38.2,
    (32.0, 640.0): 38.1,
    (16.0, 560.0): 38.7,
    (16.0, 496.0): 37.9,
    (16.0, 320.0): 37.2,
    (32.0, 560.0): 38.4,
}


def square_box(scale: float, x: float = 0.0, y: float = 0.0) -> BBox:
    return BBox(x, y, scale, scale)


def make_instance(
    scale: float,
    inst_id: int = 1,
    image_id: int = 1,
    category_id: int = 1,
    iscrowd: bool = False,
    x: float = 0.0,
    y: float = 0.0,
) -> Instance:
    return Instance(square_box(scale, x, y), category_id, iscrowd, inst_id, image_id)


def make_detection(
    box: BBox,
    score: float,
    category_id: int = 1,
    image_id: int = 1,
    resolution_index: int = -1,
) -> Detection:
    return Detection(box, category_id, score, image_id, resolution_index)


def corner_rows(*boxes: BBox) -> np.ndarray:
    """Boxes as the (N, 4) corner rows `geometry.iou_matrix` takes."""
    return to_corners(np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float))


def random_box(rng: np.random.Generator, span: float = 100.0) -> BBox:
    x = float(rng.uniform(0, span))
    y = float(rng.uniform(0, span))
    w = float(rng.uniform(1.0, span / 2))
    h = float(rng.uniform(1.0, span / 2))
    return BBox(x, y, w, h)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
