"""`faasim breakeven`."""

from __future__ import annotations

from .cli import Report
from .money import FALLACY_COST_RATIO, breakeven_duty_cycle, report_float


def breakeven(args) -> Report:
    ratio = FALLACY_COST_RATIO if args.ratio is None else args.ratio
    duty = report_float(breakeven_duty_cycle(ratio), "breakeven_duty_cycle")
    result = {
        "per_minute_cost_ratio": ratio,
        "breakeven_duty_cycle": round(duty, 6),
        "breakeven_percent": f"{report_float(duty * 100, 'breakeven_percent'):.2f}%",
    }
    return Report("breakeven", {"ratio": ratio}, result)
