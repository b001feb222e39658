"""From named bands to fatigue verdicts.

Shows the rule DSL, forward chaining over a small fact base, and how the
per-source verdicts are fused into one overall level. Run with:
python3 demos/03_rules_and_inference.py
"""

from fatiguekit import (
    FactBase,
    FusionWeights,
    RuleSyntaxError,
    assert_fact,
    default_taxonomy,
    fuse,
    infer,
    load_config,
    load_stock_pack,
    parse_rules,
    read_fatigue,
)


def main() -> None:
    pack = load_stock_pack("corrected")
    print(f"stock pack: {len(pack.rules)} rules -> {', '.join(pack.names())}")

    # A fact base for one bad window: extreme steering swings plus a fast
    # correction rhythm, and a wandering yaw angle.
    fb = FactBase(taxonomy=default_taxonomy())
    fb = assert_fact(fb, "steering@0.0", "SteeringWheelMeasurementFatigue")
    fb = assert_fact(fb, "yaw@0.0", "YawAngleMeasurementFatigue")
    for ind, cls in [
        ("mean_swa_abs@0.0", "MeanSWA_Extreme"),
        ("max_swa_abs@0.0", "SWA_Extreme"),
        ("swa_correction_freq@0.0", "FrequencyCorrection_High"),
        ("swa_angular_velocity_max@0.0", "AngularVelocity_High"),
        ("mean_yaw_abs@0.0", "Yaw_Large"),
        ("yaw_running_mean@0.0", "MeanYaw_Large"),
        ("var_yaw@0.0", "VarYaw_Large"),
        ("yaw_accel_max@0.0", "AccelerationYawRate_Medium"),
    ]:
        fb = assert_fact(fb, ind, cls)

    fb, fired = infer(fb, pack)
    print("\nfired:")
    for f in fired:
        print(f"  iteration {f.iteration}: {f.rule} classified {f.individual}")

    levels = read_fatigue(fb)
    print("\nper-source verdicts:")
    for source, level in sorted(levels.items()):
        print(f"  {source:<14} {level.display()}")

    cutoffs = load_config().fusion_cutoffs  # Low below 0.5, High from 1.5
    overall = fuse(levels, FusionWeights(weights={"SteeringWheel": 1.0,
                                                  "YawAngle": 1.0}), cutoffs)
    print(f"overall (equal weights): {overall.display()}")
    tilted = fuse(levels, FusionWeights(weights={"SteeringWheel": 1.0,
                                                 "YawAngle": 3.0}), cutoffs)
    print(f"overall (yaw x3):        {tilted.display()}")

    # The DSL reports precise positions on mistakes.
    broken = ("rule oops: when instance(?x, SteeringWheelMeasurementFatigue)\n"
              "  classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")
    try:
        parse_rules(broken)
    except RuleSyntaxError as e:
        print(f"\nbroken pack diagnostic: line {e.line}, col {e.col}: {e}")


if __name__ == "__main__":
    main()
