(* Per-domain timelines: each ring is written by exactly one domain (the one
   [Fsam_par] installed it in) and read by the calling domain only after
   [Domain.join] — the join's happens-before edge is the only
   synchronisation a single-writer/join-then-read protocol needs, so the
   hot path is four int stores and two adds, no locks, no allocation. *)

type ring = {
  region : string;
  lane : int;
  cap : int; (* slots *)
  buf : int array; (* 4 ints per slot: t_us, kind, a, b *)
  mutable n : int; (* events ever recorded; > cap means wraparound *)
}

(* Event kinds. [a]/[b] payloads per kind:
   chunk_start: a = lo, b = hi (the chunk's index range)
   chunk_stop:  a = items processed (hi - lo), b = intern-contention delta
   item:        a = item key (object id, store gid, ...), b = caller counter
   merge:       a = joined lane, b = that lane's wall_us
   absorb:      a = chunk index, b = units absorbed
   contention:  a = intern-table stripe contentions in the chunk, b = 0 *)
let k_chunk_start = 0
let k_chunk_stop = 1
let k_item = 2
let k_merge = 3
let k_absorb = 4
let k_contention = 5

let kind_name = function
  | 0 -> "chunk_start"
  | 1 -> "chunk_stop"
  | 2 -> "item"
  | 3 -> "merge"
  | 4 -> "absorb"
  | 5 -> "contention"
  | _ -> "unknown"

(* Master profiling switch: read by worker domains, written by the main
   domain before any region starts. *)
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Timestamps are microseconds relative to the last [reset] — ints, so
   events are fixed-width and the JSON document round-trips exactly. The
   interval comes from the monotonic clock (an NTP step must not produce
   backwards-travelling lanes); [epoch] keeps the absolute wall-clock
   instant of the reset for trace alignment. *)
let epoch_mono_us = Atomic.make 0
let epoch_wall_s = Atomic.make 0.
let epoch () = Atomic.get epoch_wall_s
let now_us () = Monotonic.elapsed_us ~since_us:(Atomic.get epoch_mono_us)

let default_cap = 4096

let create_ring ?(cap = default_cap) ~region ~lane () =
  let cap = max 1 cap in
  { region; lane; cap; buf = Array.make (4 * cap) 0; n = 0 }

let record r ~kind ~a ~b =
  let o = 4 * (r.n mod r.cap) in
  r.buf.(o) <- now_us ();
  r.buf.(o + 1) <- kind;
  r.buf.(o + 2) <- a;
  r.buf.(o + 3) <- b;
  r.n <- r.n + 1

let n_recorded r = r.n
let n_events r = min r.n r.cap
let dropped r = max 0 (r.n - r.cap)

(* Oldest retained event first: once wrapped, the slot about to be
   overwritten is the oldest survivor. *)
let events r =
  let k = n_events r in
  let start = if r.n > r.cap then r.n mod r.cap else 0 in
  List.init k (fun i ->
      let o = 4 * ((start + i) mod r.cap) in
      (r.buf.(o), r.buf.(o + 1), r.buf.(o + 2), r.buf.(o + 3)))

let count_kind r kind =
  List.fold_left (fun acc (_, k, _, _) -> if k = kind then acc + 1 else acc) 0 (events r)

(* The ring the current domain should append to, installed by [Fsam_par]
   around each chunk. [emit] from analysis code is a no-op unless profiling
   is on AND a ring is installed, so instrumentation points cost one atomic
   load on the disabled path. *)
let cur_key = Domain.DLS.new_key (fun () : ring option ref -> ref None)
let set_current r = Domain.DLS.get cur_key := r

let emit ~kind ~a ~b =
  if enabled () then
    match !(Domain.DLS.get cur_key) with
    | Some r -> record r ~kind ~a ~b
    | None -> ()

(* Collected rings — main domain only, absorbed after joins in lane order.
   Events a ring overwrote are counted into [obs.timeline_dropped], so the
   loss shows in the metrics registry, not only in the profile document. *)
let collected_rev : ring list ref = ref []

let absorb r =
  Metrics.add (Metrics.counter "obs.timeline_dropped") (dropped r);
  collected_rev := r :: !collected_rev

let collected () =
  List.stable_sort
    (fun a b ->
      match compare a.region b.region with 0 -> compare a.lane b.lane | c -> c)
    (List.rev !collected_rev)

let reset () =
  collected_rev := [];
  Atomic.set epoch_mono_us (Monotonic.now_us ());
  Atomic.set epoch_wall_s (Unix.gettimeofday ())

(* [with_ring ~region ~lane f]: install a fresh ring for the calling domain,
   run [f], uninstall and absorb it. Used for serial phases (merge/absorb
   loops) that want events on the main lane. No-op wrapper when disabled. *)
let with_ring ?cap ~region ~lane f =
  if not (enabled ()) then f ()
  else begin
    let r = create_ring ?cap ~region ~lane () in
    set_current (Some r);
    Fun.protect
      ~finally:(fun () ->
        set_current None;
        absorb r)
      f
  end

let ring_json r =
  Json.Obj
    [
      ("region", Json.String r.region);
      ("lane", Json.Int r.lane);
      ("recorded", Json.Int r.n);
      ("dropped", Json.Int (dropped r));
      ( "events",
        Json.List
          (List.map
             (fun (t, k, a, b) ->
               Json.List [ Json.Int t; Json.Int k; Json.Int a; Json.Int b ])
             (events r)) );
    ]

let to_json () = Json.List (List.map ring_json (collected ()))
