(** Registry of the four benchmark applications (Tbl. 4). *)

open Orianna_fg
open Orianna_util

type t = {
  name : string;
  description : string;
  variable_dims : string * string * string;
      (** localization / planning / control variable dimensions, as
          printed in Tbl. 4 *)
  factor_kinds : string * string * string;  (** factor types per algorithm *)
  graphs : Rng.t -> (string * Graph.t) list;
      (** one frame: the localization, planning and control graphs.
          The rng draws values only: the graphs' structure (graph
          names, variable names and kinds, factor names, scopes and
          error dimensions) must not depend on it.  The serving runtime
          keys each app's template once per run on that contract. *)
  mission : seed:int -> solver:[ `Software | `Compiled ] -> bool;
}

val mobile_robot : t
val manipulator : t
val auto_vehicle : t
val quadrotor : t

val all : t list

val find : string -> t
(** Case-insensitive lookup; raises [Not_found]. *)

val success_rate : t -> solver:[ `Software | `Compiled ] -> missions:int -> float
(** Fraction of successful missions over seeds 1..missions (Tbl. 5). *)
