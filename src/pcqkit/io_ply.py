"""PLY reading and writing.

Supports ascii 1.0 and binary_little_endian 1.0 vertex clouds with
positions, optional red/green/blue colors and optional nx/ny/nz normals.
Unknown vertex properties are parsed and dropped; elements after the
vertex element (faces etc.) are ignored.
"""

import os

import numpy as np

from .cloud import PointCloud
from .errors import CountMismatch, IoFailure, MalformedHeader, UnsupportedFormat

# PLY scalar type name -> numpy little-endian dtype string
_PLY_DTYPES = {
    b"char": "i1", b"int8": "i1",
    b"uchar": "u1", b"uint8": "u1",
    b"short": "<i2", b"int16": "<i2",
    b"ushort": "<u2", b"uint16": "<u2",
    b"int": "<i4", b"int32": "<i4",
    b"uint": "<u4", b"uint32": "<u4",
    b"float": "<f4", b"float32": "<f4",
    b"double": "<f8", b"float64": "<f8",
}

_COLOR_PROPS = (b"red", b"green", b"blue")
_NORMAL_PROPS = (b"nx", b"ny", b"nz")


class _Element:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.properties = []  # list of (name, dtype_str)
        self.has_list = False


def _parse_header(stream):
    """Read the header; returns (format, elements) with stream at body start."""
    magic = stream.readline().strip()
    if magic != b"ply":
        raise MalformedHeader("missing 'ply' magic line")
    fmt = None
    elements = []
    current = None
    while True:
        line = stream.readline()
        if not line:
            raise MalformedHeader("header ended before end_header")
        tokens = line.strip().split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == b"end_header":
            break
        if keyword in (b"comment", b"obj_info"):
            continue
        if keyword == b"format":
            if len(tokens) < 3:
                raise MalformedHeader("malformed format line")
            fmt = tokens[1]
            if fmt == b"binary_big_endian":
                raise UnsupportedFormat("big-endian PLY is not supported")
            if fmt not in (b"ascii", b"binary_little_endian"):
                raise UnsupportedFormat(f"unknown PLY format {fmt!r}")
        elif keyword == b"element":
            if len(tokens) != 3:
                raise MalformedHeader("malformed element line")
            try:
                count = int(tokens[2])
            except ValueError as exc:
                raise MalformedHeader(f"bad element count {tokens[2]!r}") from exc
            if count < 0:
                raise MalformedHeader("negative element count")
            current = _Element(tokens[1], count)
            elements.append(current)
        elif keyword == b"property":
            if current is None:
                raise MalformedHeader("property before any element")
            if tokens[1] == b"list":
                current.has_list = True
                current.properties.append((tokens[-1], None))
                continue
            if len(tokens) != 3:
                raise MalformedHeader("malformed property line")
            dtype = _PLY_DTYPES.get(tokens[1])
            if dtype is None:
                raise UnsupportedFormat(f"unknown property type {tokens[1]!r}")
            current.properties.append((tokens[2], dtype))
        else:
            raise MalformedHeader(f"unexpected header keyword {keyword!r}")
    if fmt is None:
        raise MalformedHeader("header has no format line")
    return fmt, elements


def _vertex_dtype(element):
    fields = [(f"p{i}", dt) for i, (_, dt) in enumerate(element.properties)]
    return np.dtype(fields)


def _triplet(by_name, names, what):
    present = [name in by_name for name in names]
    if not any(present):
        return None
    if not all(present):
        raise MalformedHeader(f"incomplete {what} triplet in vertex element")
    return np.column_stack([by_name[name].astype(np.float64)
                            for name in names])


def load_ply(path) -> PointCloud:
    """Load a PLY point cloud.

    PLY has no standard slot for the bit depth, so the cloud infers it
    from its coordinates unless the configuration supplies one.
    """
    try:
        stream = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open {path}: {exc}") from exc
    with stream:
        fmt, elements = _parse_header(stream)
        vertex = None
        for element in elements:
            if element.name == b"vertex":
                vertex = element
                break
            # skip an element that precedes the vertex data
            if element.has_list:
                raise UnsupportedFormat(
                    "list property before vertex element")
            if fmt == b"ascii":
                for _ in range(element.count):
                    if not stream.readline():
                        raise CountMismatch(
                            f"file ended inside element {element.name!r}")
            else:
                stride = _vertex_dtype(element).itemsize
                stream.seek(element.count * stride, os.SEEK_CUR)
        if vertex is None:
            raise MalformedHeader("no vertex element in header")
        if vertex.has_list:
            raise UnsupportedFormat("list property in vertex element")
        if not vertex.properties:
            raise MalformedHeader("vertex element has no properties")

        n = vertex.count
        n_props = len(vertex.properties)
        # columns[i] holds the values of vertex.properties[i]
        if fmt == b"ascii":
            tokens = stream.read().split()
            needed = n * n_props
            if len(tokens) < needed:
                raise CountMismatch(
                    f"expected {needed} vertex values, found {len(tokens)}")
            try:
                flat = np.array(tokens[:needed], dtype=np.float64)
            except ValueError as exc:
                raise MalformedHeader(f"non-numeric vertex value: {exc}") from exc
            columns = flat.reshape(n, n_props).T
        else:
            dtype = _vertex_dtype(vertex)
            raw = stream.read(n * dtype.itemsize)
            if len(raw) < n * dtype.itemsize:
                raise CountMismatch(
                    f"expected {n * dtype.itemsize} vertex bytes, "
                    f"found {len(raw)}")
            records = np.frombuffer(raw, dtype=dtype, count=n)
            columns = [records[f"p{i}"] for i in range(n_props)]

        # the first property of a name wins
        by_name = {}
        for (name, _), column in zip(vertex.properties, columns):
            by_name.setdefault(name, column)
        positions = _triplet(by_name, (b"x", b"y", b"z"), "position")
        if positions is None:
            raise MalformedHeader("vertex element lacks x/y/z properties")
        colors = _triplet(by_name, _COLOR_PROPS, "color")
        normals = _triplet(by_name, _NORMAL_PROPS, "normal")
    return PointCloud(positions, colors, normals)


def save_ply(cloud: PointCloud, path, binary: bool = False) -> None:
    """Write a cloud as PLY; positions/colors round-trip exactly.

    Colors are written as uchar when byte-valued, else as double so that
    synthetic non-integral colors survive a round trip too.
    """
    double = (b"double", "<f8")
    colors = cloud.colors
    byte_colors = colors is not None and np.array_equal(colors, np.rint(colors))
    columns = []  # (name, PLY type, numpy type, values)
    for names, values, types in (
            ((b"x", b"y", b"z"), cloud.positions, double),
            (_COLOR_PROPS, colors, (b"uchar", "u1") if byte_colors else double),
            (_NORMAL_PROPS, cloud.normals, double)):
        if values is not None:
            columns += [(name, *types, values[:, i])
                        for i, name in enumerate(names)]
    records = np.rec.fromarrays(
        [values for *_, values in columns],
        dtype=[(name.decode(), np_type) for name, _, np_type, _ in columns])

    header = [b"ply",
              b"format binary_little_endian 1.0" if binary
              else b"format ascii 1.0",
              b"element vertex %d" % len(cloud)]
    header += [b"property %s %s" % (ply_type, name)
               for name, ply_type, _, _ in columns]
    header.append(b"end_header")

    try:
        with open(path, "wb") as stream:
            stream.write(b"\n".join(header) + b"\n")
            if binary:
                stream.write(records.tobytes())
            else:
                # tolist gives Python floats, whose repr is the shortest
                # string that round-trips, and u1 fields back as ints
                stream.write("".join(
                    " ".join(map(repr, row)) + "\n"
                    for row in records.tolist()).encode("ascii"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
