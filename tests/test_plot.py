import xml.etree.ElementTree as ET

import numpy as np

from bctsne.plot import render_scatter


def test_hostile_text_gives_well_formed_svg():
    Y = np.random.default_rng(0).standard_normal((6, 2))
    colors = ["a&b", "<g>", "\"q\"", "a&b", "<g>", "é"]
    shapes = ["</text>", "x'y", "</text>", "x'y", "&amp;", "&amp;"]
    root = ET.fromstring(render_scatter(Y, colors, shapes, title="<x> & y"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "<x> & y"
    assert sorted(texts[1:]) == sorted(set(colors) | set(shapes))
