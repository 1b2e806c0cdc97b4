(** Declarative regression gates over JSON reports.

    A baseline file maps keys to lists of checks:
    {v
    { "comment": "...",
      "all": [ { "path": "serve.deadline_miss_rate", "op": "le",
                 "bound": 0.025, "tolerance": 0.005 } ] }
    v}
    [path] is a dotted JSON path into the report; a segment suffixed
    [[*]] fans out over an array, and every element must pass.  [op]
    is [le], [ge] or [eq]; [tolerance] (default 0) widens the bound in
    the passing direction, so a value exactly on its bound passes.

    Baselines and reports are untrusted text: a parse failure, missing
    key or path, non-numeric value or malformed check is an {!error},
    never an exception. *)

type op = Le | Ge | Eq

type check = { path : string; op : op; bound : float; tolerance : float }

type error = {
  file : string;
  key : string;  (** [""] before the key lookup *)
  path : string;  (** [""] when no check path is involved *)
  reason : string;  (** parse errors carry the parser's byte offset *)
}

val error_message : error -> string

val load : file:string -> key:string -> string -> (check list, error) result
(** [load ~file ~key text]: the checks listed under [key] in a
    baseline file's [text]; [file] only labels errors. *)

type verdict = {
  check : check;
  at : string;  (** concrete path of the measured (worst) element *)
  value : float;
  margin : float;  (** signed headroom; negative means the check failed *)
}

val check : file:string -> key:string -> check list -> string -> (verdict list, error) result
(** [check ~file ~key checks text]: one verdict per check against the
    report [text]; under [[*]] the element with the smallest margin. *)

val passed : verdict -> bool

val verdict_line : key:string -> verdict -> string
(** Key, path, measured value, op, bound +/- tolerance, signed margin,
    then [ok] or [REGRESSION]. *)
