(** Nonlinear incremental smoother: iSAM-style partial re-elimination
    of the square-root factor over full nonlinear streams.  With
    relinearization and marginalization off it is the exact linear
    iSAM core.

    The smoother keeps, per frontal variable, the conditional {e and}
    the leftover factor its elimination produced.  An update
    re-eliminates only the affected closure of the new measurements,
    rebuilding each affected frontal from its original factors plus the
    cached leftovers flowing in from unaffected neighbours — stacked in
    the same order a batch {!Elimination.eliminate} over the same
    factors would use, so with relinearization and marginalization off
    the incremental square-root factor is {e bit-identical} to the
    batch one.

    Nonlinearity is handled iSAM2-style: after each solve, variables
    whose delta exceeds [relin_threshold] are rebased (their
    linearization point absorbs the delta), every measurement factor
    touching them is relinearized, and the dirtied closure is
    re-eliminated, up to [max_relin_passes] times.

    Bounded memory comes from sliding-window marginalization: when the
    live variable count exceeds [window], the oldest variables are
    folded out by collecting the cached leftovers that escape the
    marginalized prefix — together they are exactly the marginal
    information on the separator — and QR-compressing them into one
    dense prior factor.  Marginalization is exact in the linear case;
    under relinearization the prior is rebased to first order
    (GTSAM's linear-container treatment). *)

open Orianna_linalg

type params = {
  relin_threshold : float;
      (** relinearize a variable when the infinity norm of its delta
          exceeds this; [<= 0] disables relinearization entirely *)
  max_relin_passes : int;  (** extra elimination passes per update *)
  window : int option;
      (** keep at most this many live variables, marginalizing the
          oldest; [None] disables marginalization *)
}

val default_params : params
(** [{ relin_threshold = 0.05; max_relin_passes = 3; window = None }] *)

type t

type stats = {
  total_variables : int;  (** live (non-marginalized) variables *)
  affected_last : int;
      (** distinct variables re-eliminated by the last update, across
          all relinearization passes and any marginalization rebuild *)
  relinearized_last : int;  (** variables rebased by the last update *)
  relin_passes_last : int;  (** extra passes run by the last update *)
  marginalized : int;  (** variables folded out so far (cumulative) *)
  updates : int;
}

val create : ?params:params -> unit -> t

val add_variable : t -> string -> Var.t -> unit
(** Stage a new variable with its initial estimate (which becomes its
    first linearization point).  Raises [Invalid_argument] on a
    duplicate or retired name. *)

val add_factor : t -> Factor.t -> unit
(** Stage a new measurement.  Every variable it touches must be live
    or staged; raises [Invalid_argument] on an unknown name and
    {!Retired} when a variable has been marginalized out. *)

exception Retired of string
(** A factor referenced a variable that left the sliding window. *)

val has_variable : t -> string -> bool
(** Live or staged. *)

val is_retired : t -> string -> bool

val update : t -> unit
(** Fold the staged variables and factors in: commit, re-eliminate the
    affected closure, back-substitute, relinearize while over
    threshold, then marginalize down to the window.  A no-op when
    nothing is staged.  Raises {!Elimination.Underconstrained} if a
    staged variable has no constraining measurement. *)

val estimate : t -> string -> Var.t
(** Current estimate; retired variables return their final estimate
    before marginalization.  Raises [Not_found] on unknown names. *)

val estimates : t -> (string * Var.t) list
(** Live variables in elimination order. *)

val all_estimates : t -> (string * Var.t) list
(** Retired variables (in retirement order) followed by live ones. *)

val delta : t -> string -> Vec.t
(** Last solved delta of a live variable (zero right after a
    rebase). *)

val live_variables : t -> string list

val error : t -> float
(** Sum of squared whitened measurement errors at the current
    estimates (marginalization priors excluded). *)

val stats : t -> stats
