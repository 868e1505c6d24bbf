(** The diagnostic taxonomy shared by the static judgments.

    Site validity ([Conv_impl.check]), the plan typing judgment and the
    analyzers in [lib/analysis] report findings as values of {!t}
    instead of raising: an [Error] means the analyzed plan is definitely
    wrong (an illegal transformation, a violated dependence, an
    out-of-range access), a [Warn] flags something suspicious but
    harmless (a no-op transformation, an unroll factor beyond the loop
    extent).  The [d_code] slug is stable across releases so tests and
    tooling can match on it; [d_loop] and [d_dep] carry the schedule
    dimension and dependence label when the finding concerns one. *)

type severity = Error | Warn

type t = {
  d_severity : severity;
  d_code : string;  (** stable machine-readable slug, e.g. ["dependence-violation"] *)
  d_loop : int option;  (** schedule dimension (loop index, outermost = 0) *)
  d_dep : string option;  (** dependence label, for legality findings *)
  d_msg : string;  (** human-readable explanation *)
}

val error : ?loop:int -> ?dep:string -> code:string -> ('a, unit, string, t) format4 -> 'a
(** An [Error] diagnostic with a formatted message. *)

val warn : ?loop:int -> ?dep:string -> code:string -> ('a, unit, string, t) format4 -> 'a
(** A [Warn] diagnostic with a formatted message. *)

val is_error : t -> bool
(** True for [Error]-severity diagnostics. *)

val errors : t list -> t list
(** The [Error]-severity subset, in order. *)

val warnings : t list -> t list
(** The [Warn]-severity subset, in order. *)

val severity_to_string : severity -> string
(** ["error"] or ["warn"]. *)

val to_string : t -> string
(** One-line rendering: severity, code, context, message. *)

val pp : Format.formatter -> t -> unit
(** Formatter version of {!to_string}. *)

val pp_list : Format.formatter -> t list -> unit
(** One diagnostic per line (inside an open vertical box). *)
