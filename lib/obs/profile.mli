(** Plan-level execution profiler.

    Wall time is attributed to [(plan digest, level path)] cells: the
    runtime reports samples addressed by a level's position in the plan
    tree (["L0"], ["L1"], … outermost-first, ["leaf"] for the point
    computation) or by backend phase (["phase:fastpath"],
    ["phase:fastpath.bind"], ["phase:specializer.bind"],
    ["phase:specializer.compile"], ["phase:specializer.run"],
    ["phase:cc.build"], ["phase:cc.run"], ["phase:walker"]), plus an
    enclosing ["exec"] cell per run. Keys are plain strings so this
    module has no dependency on the lowering layer — callers pass
    [Plan.digest].

    Disabled (the default) every entry point is one atomic load and no
    cells are ever created, so instrumented code paths stay bit-identical
    in output and effectively free. Accumulation is per-domain-safe:
    registration is mutex-protected, updates are lock-free atomics. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val add : digest:string -> path:string -> float -> unit
(** [add ~digest ~path seconds] accumulates one sample. No-op when
    disabled. *)

val add_n : digest:string -> path:string -> count:int -> float -> unit
(** Accumulate a pre-aggregated batch: [count] samples totalling the
    given seconds (one atomic round-trip instead of [count]). No-op when
    disabled or [count <= 0]. *)

val time : digest:string -> path:string -> (unit -> 'a) -> 'a
(** Run the thunk and attribute its wall time; exceptions still record
    the elapsed time. When disabled this is exactly [f ()] after one
    atomic load. *)

val time_level : digest:string -> path:string -> (unit -> 'a) -> 'a
(** {!time} for a segment of a run addressed by level path (a write-back,
    a partial combine, a kernel call): the same seconds also accumulate
    into the digest's ["exec"] cell, so level times keep summing to it. *)

type entry = { path : string; count : int; total_s : float }

val snapshot : string -> entry list
(** All cells recorded under a digest, in first-registration order. *)

val digests : unit -> string list
(** Digests with at least one cell, in first-registration order. *)

val reset : unit -> unit
(** Drop every cell (the enabled flag is untouched). *)
