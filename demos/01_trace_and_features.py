"""From raw samples to per-window features.

Builds a short synthetic drive, slices it into overlapping windows, and
prints the steering / yaw / eyelid features the extractors produce for
each window. Each feature family returns the fields it fills, and
extract_features gathers them into one dict per window; `run` builds the
window's FeatureVector from that dict. Run with:  python3 demos/01_trace_and_features.py
"""

from fatiguekit import (
    ScenarioSpec,
    Segment,
    extract_features,
    generate_scenario,
    make_windows,
)


def main() -> None:
    # Four minutes of clean driving followed by four minutes of weaving.
    spec = ScenarioSpec(duration=480.0, seed=11, segments=(
        Segment(0.0, 240.0, "alert"),
        Segment(240.0, 480.0, "drowsy")))
    trace = generate_scenario(spec)

    print(f"trace: {len(trace)} frames spanning "
          f"{trace.t[0]:.1f}–{trace.t[-1]:.1f} s")

    windows = make_windows(trace, length=60.0, stride=30.0)
    print(f"windows: {len(windows)} of 60 s every 30 s\n")

    header = f"{'start':>6} {'mean|swa|':>10} {'corr/min':>9} {'apen':>7} " \
             f"{'var yaw':>8} {'blinks/min':>10}"
    print(header)
    print("-" * len(header))
    for w in windows:
        fields, notes = extract_features(w)
        apen = fields.get("swa_apen")
        apen = f"{apen:.3f}" if apen is not None else "—"
        print(f"{w.start_t:>6.0f} {fields['mean_swa_abs']:>10.2f} "
              f"{fields['swa_correction_freq']:>9.1f} {apen:>7} "
              f"{fields['var_yaw']:>8.3f} {fields['blink_freq']:>10.1f}")
        for note in notes:
            print(f"       note: {note}")

    print("\nThe weaving half shows up immediately: mean steering deflection "
          "jumps past 10°, corrections exceed a dozen per minute, and the "
          "yaw variance rises by two orders of magnitude.")


if __name__ == "__main__":
    main()
