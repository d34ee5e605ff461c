"""Grid-search input delays and hidden-layer sizes, then pick a winner.

Configurations that miss the informative lags fit worse AND leave structure
in the residuals, which shows up as input-error correlations outside the 95%
confidence band.  Selection filters on that band before maximizing R.
"""

from narxlm.sweep import SweepGrid, run_sweep, select_best
from narxlm.synth import synthetic_ohlcv_frame
from narxlm.training import TrainParams

EXO = ("open", "high", "low", "volume")

frame, _teacher = synthetic_ohlcv_frame(800, seed=17, noise_std=0.005)

grid = SweepGrid(
    d_u_candidates=((0, 1), (2, 3, 4, 5)),
    d_y_candidates=((1,),),
    neuron_candidates=(1, 5, 10),
    params=TrainParams(xi=1.0, epochs=60, restarts=2,
                       goal=1e-12, min_grad=1e-10),
    seed=3,
)

# each point is normalized, trained and scored as `narxlm train` would do it
rows = run_sweep(grid, frame, EXO, "close")

print(f"{'d_u':>10} {'d_y':>5} {'N':>3} {'performance':>12} "
      f"{'R':>8} {'in-bounds':>9}")
for r in rows:
    print(f"{str(r.d_u):>10} {str(r.d_y):>5} {r.n_hidden:>3} "
          f"{r.performance:>12.3e} {r.r_value:>8.5f} "
          f"{str(r.xcorr_within_bounds):>9}")

best = select_best(rows)
print(f"\nselected: d_u={best.d_u} d_y={best.d_y} N={best.n_hidden} "
      f"(R={best.r_value:.5f})")
if best.warning:
    print(f"warning: {best.warning}")
