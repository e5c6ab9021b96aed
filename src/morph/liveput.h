// Liveput-optimized morphing (Parcae, PAPERS.md): instead of reacting to
// preemptions after they cost a rollback, the manager predicts availability
// and picks the next (P, D, m) to maximize expected *liveput* — estimated
// throughput × P(the placement survives the next horizon H).
//
// Two pieces, both policy-side (no simulation changes):
//   * AvailabilityPredictor — an online estimator of the spot pool's 2-state
//     (up/down) Markov transition probabilities, learned from the *observed*
//     grant/preemption stream with Laplace smoothing. The contract: it never
//     reads SpotMarket's hidden SpotPoolDynamics (this header deliberately
//     includes nothing from src/cluster); everything it knows arrives through
//     Observe*() calls fed by the manager's market observers. An oracle mode
//     accepts the true hazard (and scripted storm forecasts) from the caller
//     for upper-bound comparisons. The predictor draws no randomness and
//     schedules no events — its state is a pure function of the observation
//     stream, which keeps every policy mode bit-replayable.
//   * LiveputObjective — rescores ConfigSearch candidates by survival-weighted
//     throughput. "P(≥ required nodes survive H)" for a placement with no
//     spare VMs is exactly P(every used VM survives H) = s^V. The raw liveput
//     product thr × s^V assumes a hit forfeits the whole horizon, which
//     overprices risk so badly the argmax collapses to tiny placements; the
//     objective therefore amortizes: a hit costs only the recovery window
//     (rollback re-work + restore stall), so
//       Score = thr × (1 − (1 − s^V) × recovery_cost/H)
//     which degrades to the pure liveput product exactly when recovery costs
//     the whole horizon. Fewer VMs still ⇒ higher survival, but the argmax
//     only trades throughput for robustness when the recovery cost warrants.
//
// The objective re-scores ConfigSearch::Sweep()'s throughput list after the
// sweep returns; the predictor is not a sweep input. A learning step changes
// the scores, never the list, so the search memos stay valid across it.
#ifndef SRC_MORPH_LIVEPUT_H_
#define SRC_MORPH_LIVEPUT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/morph/config_search.h"

namespace varuna {

// How the manager chooses and times morphs.
enum class MorphPolicy : uint8_t {
  kReactive = 0,         // Varuna §4.6: morph only after a preemption lands.
  kProactive = 1,        // Liveput argmax + pre-migration, online predictor.
  kOracleProactive = 2,  // Same policy, predictor fed the true hazard/storms.
};

struct PredictorOptions {
  // Discretization of the Markov chain: one "window" of exposure.
  double window_s = 60.0;
  // Laplace pseudo-counts smoothing both transition estimates.
  double laplace_alpha = 1.0;
  // Warm-up gates: below either, Cold() is true and the manager must stay on
  // the reactive path (the estimate is noise, not signal).
  double min_exposure_windows = 30.0;
  int min_preemption_events = 3;
  // Recency half-life of the transition estimates: counts and exposure decay
  // by exp(-dt/tau), so risk spikes while a storm is landing and relaxes in
  // calm stretches instead of smearing storm kills over the whole session.
  // For a stationary chain the decayed ratio stays an unbiased estimate of
  // the same transition probability (just higher-variance). <= 0 disables
  // decay (the pure cumulative estimator, used by the convergence test).
  double decay_tau_s = 120.0;
  // ElevatedRisk() (the pre-migration storm gate) needs at least this many
  // decayed kills in the recency window — roughly "a multi-kill storm is
  // landing right now", which is where early checkpoints actually pay.
  double storm_gate_kills = 1.5;
};

// Online 2-state Markov availability estimator. Feed it every announced
// grant/preemption (ObserveGrant/ObservePreemption) plus periodic quiet
// ticks (ObserveQuiet) so exposure time accrues between events.
class AvailabilityPredictor {
 public:
  AvailabilityPredictor() = default;
  explicit AvailabilityPredictor(const PredictorOptions& options) : options_(options) {}

  // Oracle mode: survival comes from the true per-second hazard plus any
  // forecast storms instead of the learned counts. The counts still accrue
  // (so instrumentation stays comparable); they are just not consulted.
  void EnableOracle(double true_hazard_per_s);
  bool oracle() const { return oracle_; }

  // One node joined (down -> up transition observed).
  void ObserveGrant(double now_s);
  // One node was reclaimed (up -> down transition observed).
  void ObservePreemption(double now_s);
  // Nothing happened; accrue exposure up to now_s.
  void ObserveQuiet(double now_s);
  // Standing demand: bounds the down-state population (demand - up) whose
  // exposure feeds the restore-probability estimate.
  void SetDemandHint(int vms);

  // Oracle storm forecast: `vms` expected kills at absolute time at_s.
  // Forecasts in the past are dropped as time advances.
  void ForecastStorm(double at_s, int vms);

  // True until the warm-up gates are met. Oracle mode is never cold.
  bool Cold() const;
  // Storm gate for the pre-migration trigger: online, true while at least
  // ~storm_gate_kills decayed kills sit inside the recency window (a storm is
  // landing) — premigrating outside those windows buys rollback depth the
  // noisy estimate does not justify. Oracle mode always passes: its hit
  // probabilities are exact, so the cost model needs no noise gate.
  bool ElevatedRisk(double window_s) const;
  int up_vms() const { return up_; }
  int64_t updates() const { return updates_; }
  int64_t preemptions_observed() const { return preemptions_; }

  // The estimated transition matrix, smoothed. Row "up": [1-p, p]; row
  // "down": [q, 1-q]. Exposed for the convergence property test.
  double PreemptProbabilityPerWindow() const;   // p: P(up -> down in a window)
  double RestoreProbabilityPerWindow() const;   // q: P(down -> up in a window)

  // P(one currently-up node is still up horizon_s from now). In oracle mode
  // exp(-hazard * h) discounted by forecast storms inside the horizon.
  double NodeSurvival(double horizon_s) const;
  // P(all `vms_used` placement nodes survive) = NodeSurvival^vms_used.
  double PlacementSurvival(int vms_used, double horizon_s) const;

  // FNV-1a over the decision-relevant state: transition counts, quantized
  // exposure, population and forecasts. Any observation that can change a
  // survival estimate rotates it; quiet accrual within one window does not.
  // A change detector for callers and tests; no search memo is keyed on it.
  uint64_t Fingerprint() const;

 private:
  // Accrues exposure windows for the up and down populations up to now_s and
  // drops stale forecasts. Time never runs backwards on the DES.
  void Advance(double now_s);
  // Expected storm kills scheduled within (now, now + horizon_s].
  double ForecastKills(double horizon_s) const;

  PredictorOptions options_;
  bool oracle_ = false;
  double oracle_hazard_per_s_ = 0.0;
  bool have_now_ = false;
  double last_now_s_ = 0.0;
  int up_ = 0;
  int demand_hint_ = 0;
  // Raw cumulative tallies: warm-up gates + instrumentation.
  double up_exposure_windows_ = 0.0;
  double down_exposure_windows_ = 0.0;
  int64_t preemptions_ = 0;  // Observed up -> down transitions.
  int64_t grants_ = 0;       // Observed down -> up transitions.
  int64_t updates_ = 0;      // Every Observe* call.
  // Recency-decayed shadows of the four tallies above — what the transition
  // estimates actually consult (identical to the raw tallies when decay is
  // disabled).
  double decayed_up_exposure_ = 0.0;
  double decayed_down_exposure_ = 0.0;
  double decayed_preemptions_ = 0.0;
  double decayed_grants_ = 0.0;
  // (at_s, expected kills), sorted ascending by time. Flat per the hot-path
  // rule; a campaign scripts at most a handful of storms.
  std::vector<std::pair<double, int>> forecasts_;
};

// Survival-weighted scoring of ConfigSearch candidates.
class LiveputObjective {
 public:
  // `recovery_cost_s` is what one placement hit actually costs (expected
  // rollback re-work + restore stall). Negative means "the whole horizon",
  // i.e. the pure liveput product.
  LiveputObjective(const AvailabilityPredictor* predictor, double horizon_s,
                   int gpus_per_vm, double recovery_cost_s = -1.0)
      : predictor_(predictor),
        horizon_s_(horizon_s),
        gpus_per_vm_(gpus_per_vm),
        recovery_cost_s_(recovery_cost_s) {}

  // Distinct VMs a candidate occupies (ceil over the per-VM GPU count).
  int VmsUsed(const JobConfig& config) const;
  double PlacementSurvival(const JobConfig& config) const;

  // Pure liveput = est_examples_per_s × P(placement survives the horizon).
  // Monotone in survival at fixed throughput (property-tested).
  static double Liveput(double est_examples_per_s, double placement_survival) {
    return est_examples_per_s * placement_survival;
  }
  // Recovery-amortized score (see header comment). Also monotone in survival
  // at fixed throughput; equals Liveput() when recovery covers the horizon.
  double Score(double est_examples_per_s, double placement_survival) const;
  double Score(const JobConfig& config) const;

  // Liveput argmax over a sweep (ascending (P, m) order): strict >, so ties
  // keep the earliest candidate — deterministic and thread-count independent.
  // Null when the sweep is empty.
  const JobConfig* BestLiveput(const std::vector<JobConfig>& sweep) const;

 private:
  const AvailabilityPredictor* predictor_;
  double horizon_s_;
  int gpus_per_vm_;
  double recovery_cost_s_;
};

}  // namespace varuna

#endif  // SRC_MORPH_LIVEPUT_H_
