"""Built-in datasets."""

from .model import TwoSampleData

# Failure times (hours) of the air-conditioning systems of two Boeing 720
# jet planes, six failures each.
BOEING_PLANE_7907 = (194.0, 5.0, 41.0, 29.0, 33.0, 181.0)
BOEING_PLANE_7916 = (50.0, 254.0, 5.0, 283.0, 35.0, 12.0)


def boeing() -> TwoSampleData:
    return TwoSampleData(BOEING_PLANE_7907, BOEING_PLANE_7916)
