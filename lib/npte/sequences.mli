(** The named transformation sequences of the paper.

    §7.3 identifies three interleaved sequences that dominate the best
    networks, and §5.3 derives the spatial bottleneck from primitive
    transformations.  Each sequence is given here twice over:

    - [plan] — the {!Site_plan.t} the search and the compile pipeline use
      (structural rewrite + schedule hints);
    - [schedules] — the literal chain of {!Poly} transformations applied to
      a convolution's loop nest, so the derivation itself is executable and
      testable (the loop-IR test-suite checks the semantics of each). *)

type t =
  | Plain_group of int  (** the NAS grouping operation *)
  | Plain_bottleneck of int
  | Plain_depthwise
  | Seq1 of { g : int; split : int }
      (** [split -> interchange -> group -> interchange -> fuse]: grouping
          over a split spatial domain *)
  | Seq2 of { g : int; unroll : int }
      (** [unroll -> group -> interchange]: output channels unrolled, the
          remaining domain grouped *)
  | Seq3 of { g1 : int; g2 : int }
      (** [split -> group -> interchange -> group]: different grouping
          factors on the two halves of the output-channel domain *)
  | Spatial_bneck of int
      (** §5.3: interchange/bottleneck chain over the spatial iterators *)

val name : t -> string

val plan : t -> Site_plan.t
(** The {!Site_plan.t} realising the sequence: the structural rewrite
    plus the schedule hints it seeds the autotuner with. *)

val valid : Conv_impl.site -> t -> bool
(** Whether the sequence's structural rewrite is applicable to the site
    (delegates to {!Conv_impl.valid} on {!plan}'s implementation). *)

val standard_menu : Conv_impl.site -> t list
(** Every named sequence, with its standard parameters (§7.3 uses g=2,
    unroll=16, g1=2/g2=4), filtered to those valid for the site. *)

val typed_menu : Conv_impl.site -> t list
(** The site's full typed choice space, by rule inversion: every factor a
    family admits is enumerated directly from the site's divisor structure
    (group factors over divisors of gcd(ci,co) refining the baseline
    grouping, bottleneck factors over divisors of co/groups, spatial
    shrinks over divisors of the output plane, split-grouped pairs over
    per-half divisors), so every entry is valid by construction — no
    rejection filtering.  Strictly contains the [valid] subset of
    {!standard_menu}'s fixed parameterizations. *)

val schedules : t -> Loop_nest.conv_nest -> Poly.t list
(** The literal transformation chain applied to the nest's baseline
    schedule.  [Seq3] returns two schedules (one per output-channel half);
    every other sequence returns one. *)

val is_dominant : t -> bool
(** True for the three §7.3 sequences. *)
