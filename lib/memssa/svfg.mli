open Fsam_ir

(** The sparse value-flow (def-use) graph over address-taken objects — the
    core representation of the sparse analysis (paper §2.2, §3.2, §3.3).

    {b Thread-oblivious edges} (paper §3.2) come from an interprocedural
    memory-SSA construction driven by the pre-analysis: loads and stores are
    annotated with the objects they may access (mu/chi); call and fork sites
    carry chi nodes for their callees' mod sets ({e weak} at forks, which
    yields the fork-bypass edges of Step 2); handled join sites carry chi
    nodes fed by the spawnee's formal-out defs (the join edges of Step 3);
    per-object def-use chains are then derived with a sparse per-object
    reaching-definitions pass (in the spirit of the sparse evaluation graphs
    the paper traces this idea to). Once per function a {e relevance index}
    lists, per object of the function's mod ∪ ref, the statements whose
    transfer can act on it: loads and stores whose pointer may target it,
    calls and forks whose callees mod or ref it or whose handle may point to
    it, returns when the function mods it, and — for every object — the
    entry and each gid carrying join rows. Every other statement is the
    identity, so per object the dataflow runs over a {e reduced CFG} whose
    nodes are the relevant statements and whose edges are forward walks
    through identity statements; its state is sized by the relevant
    statements, not by the function. The transfer function is the
    full-CFG one, so the fixpoint — every edge, kind and owner — is what a
    dense pass over every statement computes (the test suite keeps that
    dense pass as a differential reference). Reduced nodes are visited
    lowest CFG BFS rank first, so nodes are interned — numbered — in the
    order a FIFO pass over the full CFG first reaches them. Adjacency
    lists usually come out in the dense pass's order too (the tests check
    the paper suite and synth quick; every bench-gated propagation count
    is unchanged), but a def may reach two uses in the other order, which
    reorders a list without changing its contents.

    Provenance kinds of thread-oblivious edges do not depend on the visit
    order: an edge whose def reaches the use through the ordinary channel
    is {!k_oblivious} even when the def also bypasses a fork on another
    path; {!k_fork_bypass} marks defs that reach only through a fork's
    bypass channel.

    {b Thread-aware edges} (paper §3.3, rule [THREAD-VF]) connect MHP
    store-load and store-store statement pairs with a common pre-analysis
    points-to target, filtered by the lock analysis' non-interference pairs
    (Definitions 4–6). The [config] selects the paper's ablations:
    No-Interleaving (PCG instead of the interleaving analysis),
    No-Value-Flow (common-target requirement dropped), No-Lock (filter
    disabled).

    [THREAD-VF] pair discovery is pure over the thread-oblivious snapshot
    and fans out per object across domains when [build ~jobs] exceeds 1;
    the per-chunk results are applied serially in chunk order, so the edge
    set, the racy-store sets and every counter are identical for all [jobs]
    values. *)

type node =
  | Stmt_node of int  (** statement gid: loads, stores, fork-handle chis *)
  | Formal_in of int * int  (** (fid, obj): memory state at function entry *)
  | Formal_out of int * int  (** (fid, obj): memory state at function exit *)
  | Call_chi of int * int  (** (callsite gid, obj): weak def at a call/fork *)

type config = {
  thread_aware : bool;  (** add [THREAD-VF] edges at all *)
  use_interleaving : bool;  (** false = the paper's No-Interleaving (PCG) *)
  use_value_flow : bool;  (** false = the paper's No-Value-Flow *)
  use_lock : bool;  (** false = the paper's No-Lock *)
}

val default_config : config

type t

(** Per gid, the [(fork gid, start fn, start-fn mods)] rows of the threads a
    handled join (or symmetric-loop exit) at that gid makes visible. *)
type join_info = (int, (int * int * Fsam_dsa.Iset.t) list) Hashtbl.t

val build :
  ?config:config ->
  ?jobs:int ->
  ?prov:Fsam_prov.t ->
  ?oblivious:(t -> Fsam_andersen.Solver.t -> Fsam_andersen.Modref.t -> join_info -> unit) ->
  Prog.t ->
  Fsam_andersen.Solver.t ->
  Fsam_andersen.Modref.t ->
  Fsam_mta.Icfg.t ->
  Fsam_mta.Threads.t ->
  Fsam_mta.Mhp.t ->
  Fsam_mta.Locks.t ->
  Fsam_mta.Pcg.t ->
  t

val n_nodes : t -> int
val node : t -> int -> node
val node_id : t -> node -> int option
val o_preds : t -> int -> (int * int) list
(** [(obj, def node)] pairs feeding a node. *)

val o_succs : t -> int -> (int * int) list
val n_edges : t -> int
val n_thread_aware_edges : t -> int

(** Objects for which the given store statement participates in an
    interfering (post-lock-filter) MHP pair; strong updates on these objects
    are suppressed — the interleaving may order the racing accesses either
    way, so a kill could erase a concurrent thread's later effect. *)
val racy_objs : t -> int -> Fsam_dsa.Iset.t
val prog : t -> Prog.t

val arena_occupancy : t -> int * int
(** [(live, tombstones)] cell counts summed over the arena-backed pred/succ
    edge indexes; [(0, 0)] before they are materialized. Observability
    only. *)

val digest : t -> string
(** Hex digest of the graph's canonical structural fingerprint (edge
    counts, sorted structural edge triples, racy-object sets). Keys are
    structural — gids, fids and object ids, never intern-order node
    indices — so an incrementally patched graph digests equal to a cold
    rebuild iff they denote the same graph. Used by the jobs-invariance
    tests and the serve differential mode. *)

val node_key : t -> int -> string
(** Stable textual key of a node's structure (gid / fid / object id, never
    the intern-order index) — the key the serve engine uses to compare and
    serialize per-node results across generations whose graphs interned
    nodes in different orders. *)

(* Incremental patching (fsam serve warm edits) --------------------------- *)

type patch_stats = {
  ps_dirty_fns : int;  (** functions whose oblivious dataflow was re-run *)
  ps_dirty_objs : int;  (** objects whose [THREAD-VF] pair space was re-run *)
  ps_removed : int;  (** oblivious edges retracted *)
  ps_added : int;  (** oblivious edges re-derived (including promotions) *)
}

val patch :
  t ->
  ?config:config ->
  ?jobs:int ->
  prog:Prog.t ->
  old_ast:Fsam_andersen.Solver.t ->
  ast:Fsam_andersen.Solver.t ->
  old_mr:Fsam_andersen.Modref.t ->
  mr:Fsam_andersen.Modref.t ->
  icfg:Fsam_mta.Icfg.t ->
  tm:Fsam_mta.Threads.t ->
  mhp:Fsam_mta.Mhp.t ->
  lk:Fsam_mta.Locks.t ->
  pcg:Fsam_mta.Pcg.t ->
  edited_fids:int list ->
  unit ->
  (t * patch_stats, string) result
(** Splice the previous generation's SVFG into the new generation's in
    place of a cold rebuild: retract the oblivious edges owned by dirty
    functions (edited, or with drifted points-to / mod-ref / join-row
    inputs), re-run the per-fn oblivious construction for those functions
    only, then re-run [THREAD-VF] discovery for exactly the objects whose
    oblivious rows or access lists changed. The input graph is not
    mutated; the result's structural digest is byte-identical to a cold
    [build] of the new program. Preconditions (established by the serve
    engine): identical statement gids and object tables across the
    generations and a reused thread model / MHP / lock analysis. [Error
    reason] when a detectable precondition fails — the caller falls back
    to a cold rebuild and counts the reason. *)

(* Provenance (populated only when [build ~prov] was given) --------------- *)

(** Edge kinds for {!edge_kind}: how a def-use edge came to exist. *)

val k_oblivious : int  (** thread-oblivious reaching-definition edge *)

val k_fork_bypass : int  (** paper §3.2 step 2: defs bypassing a fork *)

val k_join : int  (** paper §3.2 step 3: spawnee formal-out via a join *)

val k_thread_vf : int  (** paper §3.3 rule [THREAD-VF] *)

(** Kind of the given edge; {!k_oblivious} when unknown or when built
    without a recorder. The [THREAD-VF] pair verdicts themselves (kept /
    lock-filtered / no-MHP, space [Fsam_prov.sp_pair]) live in the recorder
    passed to [build]. *)
val edge_kind : t -> src:int -> obj:int -> dst:int -> int
val iter_nodes : t -> (int -> node -> unit) -> unit

(* Reference builders ------------------------------------------------------ *)

(** [build ~oblivious] replaces the thread-oblivious stage with the given
    builder; the thread-aware stage then runs over whatever it derived.
    These are the primitives such a builder (the dense differential
    reference of the test suite) adds nodes and edges with. *)

val intern : t -> node -> int
(** Node id of [node], adding it if new. *)

val add_edge : ?kind:int -> t -> int -> int -> int -> unit
(** [add_edge ~kind t src obj dst]. [kind] (default {!k_oblivious}) is
    recorded only with provenance on. Adding an existing edge changes
    nothing, except that an oblivious re-derivation turns a fork-bypass
    kind oblivious. *)

val set_owner : t -> int -> unit
(** Function credited with the oblivious edges added next ([-1]: none). *)

val recording : t -> bool
(** Built with a provenance recorder. *)

val edge_owner : t -> src:int -> obj:int -> dst:int -> int option
(** Function whose oblivious dataflow first derived the edge. *)

val pp_stats : Format.formatter -> t -> unit
