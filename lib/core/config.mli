(** Session-wide configuration: cost model, analysis thresholds and
    inference budgets, with the defaults every experiment in EXPERIMENTS.md
    uses. *)

open Ddet_record
open Ddet_replay

type t = {
  cost_model : Cost_model.t;
  plane_threshold : float;
      (** data rate (input-derived bytes per step) above which a function is
          data-plane; default 6.0 — see the taint-profile calibration in
          DESIGN.md *)
  budget : Search.budget;  (** inference budget for searched replays *)
  value_budget : Search.budget;
      (** small budget for value-determinism replay (a handful of seeds) *)
  training_runs : int;  (** passing runs used to train the analyses *)
  training_seed_base : int;  (** first seed scanned for training runs *)
  trigger_window : int;  (** high-fidelity window opened by a trigger *)
  flight_ring : int option;
      (** capacity of the flight-recorder ring used by windowed RCSE
          selections (trigger/data/combined); [None] disables it *)
  race_config : Ddet_analysis.Race_detector.config;
  jobs : int;
      (** Inert: nothing reads it. Searches and seed scans are sequential.
          The field is kept only because the session benchmark's driver
          still sets it; it goes when that driver next changes. *)
  overhead_budget : float option;
      (** recording-overhead SLO (e.g. [Some 1.3] for "≤1.3x"): recording
          runs under an {!Ddet_record.Governor} that degrades fidelity
          gracefully to stay within it; [None] (the default) records at
          the model's full fidelity *)
}

val default : t
