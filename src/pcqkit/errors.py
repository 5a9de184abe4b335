"""Exception hierarchy for pcqkit.

Every error raised on purpose by the toolkit derives from PcqkitError so
callers (and the CLI) can separate data problems from genuine bugs.
"""


class PcqkitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# point cloud I/O

class MalformedHeader(PcqkitError):
    """PLY header is missing, truncated or syntactically invalid."""


class CountMismatch(PcqkitError):
    """Fewer vertex records in the body than the header declared."""


class UnsupportedFormat(PcqkitError):
    """Valid PLY, but a flavour this reader does not handle."""


class IoFailure(PcqkitError):
    """Underlying file could not be read or written."""


class InvalidCloud(PcqkitError):
    """Point cloud arrays violate a structural constraint."""


# ---------------------------------------------------------------------------
# spatial queries and local surface fitting

class EmptyCloud(InvalidCloud):
    """Operation requires at least one point."""


# ---------------------------------------------------------------------------
# color

class TableMissing(PcqkitError):
    """A color remapping table was requested but cannot be loaded."""


# ---------------------------------------------------------------------------
# metrics

class MissingAttribute(PcqkitError):
    """Metric needs an attribute (colors, normals) the cloud lacks."""


class MissingNormalsUnrecoverable(PcqkitError):
    """Normals absent and the cloud is too small to estimate them."""


class SettingsMismatch(PcqkitError):
    """Two intermediate results were built with incompatible settings."""


class AllKeypointsEmpty(PcqkitError):
    """No keypoint produced a comparable local graph."""


# ---------------------------------------------------------------------------
# dataset pipeline

class MissingColumn(PcqkitError):
    """Required CSV column absent."""


class BadMosValue(PcqkitError):
    """MOS entry is not a finite number (row number in message)."""


class SchemaMismatch(PcqkitError):
    """Feature/score CSV carries an unknown schema version."""


class ConfigMismatch(PcqkitError):
    """Artifact was produced under a different extraction config."""


# ---------------------------------------------------------------------------
# regression / evaluation

class SingularSystem(PcqkitError):
    """Linear system cannot be solved (alpha = 0 with rank-deficient X)."""


class NonConvergence(PcqkitError):
    """Iterative solver hit its iteration cap before the tolerance."""


class MissingFeatureColumn(PcqkitError):
    """Model asks for a feature column the table does not provide."""


class UnknownModel(PcqkitError):
    """Model name not present in the registry."""


class TooFewGroups(PcqkitError):
    """Fewer groups than requested folds."""


class DegenerateInput(PcqkitError):
    """Too few samples or zero-variance input for a statistic."""


class JoinMismatch(PcqkitError):
    """Score rows and manifest rows do not line up."""
