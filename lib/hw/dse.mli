(** Constraint-driven hardware generation (Sec. 6.2, Equ. 5).

    Solves [argmin L(p1..pn) s.t. R(p1..pn) <= R*] with the paper's
    greedy procedure: start from one unit per class, repeatedly add
    the unit whose replication best improves the objective, stop when
    the budget is exhausted or no replication helps.  The objective is
    supplied as a callback (the cycle-level simulator in
    [orianna_sim]), so latency- and energy-targeted generation share
    this module. *)

type move = Add_unit of Unit_model.unit_class | Widen_qr

type step = {
  added : move option;  (** [None] on the initial point *)
  accel : Accel.t;
  objective : float;
  resources : Resource.t;
}

type result = { best : Accel.t; objective : float; trace : step list }

type config_key = int list * int
(** Structural identity of a configuration: unit counts in
    [Unit_model.all_classes] order, plus the QR rotator width. *)

val config_key : Accel.t -> config_key

val cache : unit -> (config_key, float) Hashtbl.t
(** A fresh evaluation cache for {!optimize}'s [?cache].  Pass the
    same cache to several [optimize] calls sharing one [evaluate]
    (multi-start search) and configurations reached from more than one
    start are evaluated once. *)

val optimize :
  budget:Resource.t ->
  evaluate:(Accel.t -> float) ->
  ?classes:Unit_model.unit_class list ->
  ?init:Accel.t ->
  ?min_gain:float ->
  ?cache:(config_key, float) Hashtbl.t ->
  unit ->
  result
(** [optimize ~budget ~evaluate ()] greedily replicates units.
    [classes] restricts which templates may be replicated (default:
    all); [min_gain] is the relative improvement below which the
    search stops (default 0.5 %).  The initial configuration must fit
    the budget; raises [Invalid_argument] otherwise.

    Candidate evaluations are memoized on {!config_key} — hits bump
    the [dse.candidates.cached] counter and skip [evaluate].  [cache]
    defaults to a fresh per-call table; supply one ({!cache}) to share
    memoized scores across calls.  [evaluate] must therefore be a pure
    function of the configuration.  Uncached candidates of a round are
    evaluated in parallel on the {!Orianna_par.Pool} (results are
    independent of the job count; [evaluate] must be thread-safe —
    the simulator's [Schedule.run_prepared] is, on one prepared
    program shared by every lane). *)

val move_name : move option -> string
(** ["initial"], ["+<class>"] or ["widen-qr"] — the names the trace
    reports use. *)

val result_json : ?meta:(string * Orianna_obs.Json.t) list -> result -> Orianna_obs.Json.t
(** The search result as JSON: the greedy trace (move, objective, DSP
    use per step), the chosen configuration and its objective, with
    the optional [meta] object prepended.  Pure function of the search
    inputs — no timings — so the payload diffs byte-for-byte across
    job counts; the j1-vs-j4 determinism tests compare it directly. *)
