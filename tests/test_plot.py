import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bctsne import plot
from bctsne.errors import ValidationError
from bctsne.plot import render_scatter, write_scatter_svg


def test_hostile_text_gives_well_formed_svg():
    Y = np.random.default_rng(0).standard_normal((6, 2))
    colors = ["a&b", "<g>", "\"q\"", "a&b", "<g>", "é"]
    shapes = ["</text>", "x'y", "</text>", "x'y", "&amp;", "&amp;"]
    root = ET.fromstring(render_scatter(Y, colors, shapes, title="<x> & y"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "<x> & y"
    assert sorted(texts[1:]) == sorted(set(colors) | set(shapes))


def test_non_finite_points_rejected():
    Y = np.random.default_rng(1).standard_normal((5, 2))
    Y[2, 1] = np.nan
    with pytest.raises(ValidationError, match="Y contains non-finite"):
        render_scatter(Y)


def test_empty_embedding_rejected():
    with pytest.raises(ValidationError, match="Y needs at least 1 row"):
        render_scatter(np.zeros((0, 2)))


@pytest.mark.parametrize("keyword", ["color_labels", "shape_labels"])
@pytest.mark.parametrize("length", [4, 6])
def test_labels_length_checked(keyword, length):
    Y = np.random.default_rng(2).standard_normal((5, 2))
    labels = ["a", "b", "c", "d", "e", "f"][:length]
    with pytest.raises(ValidationError, match=f"labels length {length} does not match"):
        render_scatter(Y, **{keyword: labels})


def test_five_shape_levels_draw_every_marker():
    Y = np.random.default_rng(5).standard_normal((10, 2))
    root = ET.fromstring(render_scatter(Y, shape_labels=[f"s{i % 5}" for i in range(10)]))
    ns = "{http://www.w3.org/2000/svg}"
    children = list(root)
    legend = [el.tag for el, after in zip(children, children[1:]) if after.tag == ns + "text"]
    assert legend == [ns + tag for tag in ("circle", "rect", "polygon", "polygon", "path")]
    assert [el.tag for el in children].count(ns + "path") == 3  # two points and the legend


def test_failed_write_keeps_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "old.svg"
    write_scatter_svg(path, np.random.default_rng(3).standard_normal((5, 2)))
    before = path.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails partway
    monkeypatch.setattr(plot, "render_scatter", lambda *args: "<svg>\ud800</svg>\n")
    with pytest.raises(UnicodeEncodeError):
        write_scatter_svg(path, np.zeros((5, 2)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["old.svg"]


def test_cycling_warning_points_at_the_caller():
    Y = np.random.default_rng(4).standard_normal((10, 2))
    with pytest.warns(UserWarning, match="10 levels exceed the 8 available colors") as rec:
        render_scatter(Y, color_labels=[f"g{i}" for i in range(10)])
    assert [w.filename for w in rec] == [__file__]
