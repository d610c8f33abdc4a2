(* Dense thread-oblivious def-use builder — the differential reference for
   the sparse builder in [Svfg].

   This is the original construction: for every (function, object) pair it
   runs the reaching-definitions dataflow over every statement of the
   function, looking up points-to sets, callees and mod/ref summaries per
   (statement, object). The transfer function is the one [Svfg] uses over
   its reduced per-object CFGs, so the two must derive the same edges,
   edge kinds and owners; pass [build] as [Svfg.build ~oblivious]. *)

open Fsam_dsa
open Fsam_ir
module A = Fsam_andersen.Solver
module Modref = Fsam_andersen.Modref
module Svfg = Fsam_memssa.Svfg

let build t ast mr (join_info : Svfg.join_info) =
  let prog = Svfg.prog t in
  let record = Svfg.recording t in
  let intern = Svfg.intern t in
  let add_edge = Svfg.add_edge in
  let k_oblivious = Svfg.k_oblivious
  and k_fork_bypass = Svfg.k_fork_bypass
  and k_join = Svfg.k_join in
  (* formal-out nodes injected by a handled join: edges sourced from them
     carry the "join" kind in provenance mode *)
  let join_src : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun f ->
      let fid = f.Func.fid in
      Svfg.set_owner t fid;
      let objs = Iset.union (Modref.mod_of mr fid) (Modref.ref_of mr fid) in
      let n = Func.n_stmts f in
      (* channels: 0 = ordinary defs, 1 + k = bypass of the k-th local fork *)
      let fork_channel = Hashtbl.create 4 in
      let n_forks = ref 0 in
      Func.iter_stmts f (fun i s ->
          match s with
          | Stmt.Fork _ ->
            incr n_forks;
            Hashtbl.replace fork_channel (Prog.gid prog ~fid ~idx:i) !n_forks
          | _ -> ());
      let nchan = 1 + !n_forks in
      Iset.iter
        (fun o ->
          let out = Array.make n [||] in
          let empty_state = Array.make nchan Iset.empty in
          let formal_in = intern (Svfg.Formal_in (fid, o)) in
          let queue = Queue.create () in
          let queued = Bitvec.create ~capacity:n () in
          let push i = if Bitvec.set_if_unset queued i then Queue.add i queue in
          push 0;
          while not (Queue.is_empty queue) do
            let i = Queue.pop queue in
            Bitvec.clear queued i;
            let in_state = Array.copy empty_state in
            List.iter
              (fun p ->
                if out.(p) <> [||] then
                  Array.iteri (fun c s -> in_state.(c) <- Iset.union in_state.(c) s) out.(p))
              f.Func.pred.(i);
            if i = 0 then in_state.(0) <- Iset.add formal_in in_state.(0);
            let gid = Prog.gid prog ~fid ~idx:i in
            let all_defs = Array.fold_left Iset.union Iset.empty in_state in
            let kind_of d =
              if not record then k_oblivious
              else if Hashtbl.mem join_src d then k_join
              else if Iset.mem d in_state.(0) then k_oblivious
              else k_fork_bypass
            in
            let link_all node_id =
              Iset.iter (fun d -> add_edge ~kind:(kind_of d) t d o node_id) all_defs
            in
            let collapse_to node_id =
              link_all node_id;
              let st = Array.copy empty_state in
              st.(0) <- Iset.singleton node_id;
              st
            in
            let new_state =
              match Func.stmt f i with
              | Stmt.Load { src; _ } when Iset.mem o (A.pt_var ast src) ->
                link_all (intern (Svfg.Stmt_node gid));
                in_state
              | Stmt.Store { dst; _ } when Iset.mem o (A.pt_var ast dst) ->
                collapse_to (intern (Svfg.Stmt_node gid))
              | (Stmt.Call _ | Stmt.Fork _) as s -> (
                let callees = A.callees ast ~fid ~idx:i in
                let relevant g =
                  Iset.mem o (Modref.mod_of mr g) || Iset.mem o (Modref.ref_of mr g)
                in
                List.iter
                  (fun g ->
                    if relevant g then
                      Iset.iter
                        (fun d -> add_edge t d o (intern (Svfg.Formal_in (g, o))))
                        all_defs)
                  callees;
                let mods = List.filter (fun g -> Iset.mem o (Modref.mod_of mr g)) callees in
                let is_fork = match s with Stmt.Fork _ -> true | _ -> false in
                let after_call =
                  if mods = [] then in_state
                  else begin
                    let chi = intern (Svfg.Call_chi (gid, o)) in
                    List.iter
                      (fun g -> add_edge t (intern (Svfg.Formal_out (g, o))) o chi)
                      mods;
                    if is_fork then begin
                      let st = Array.copy empty_state in
                      st.(0) <- Iset.singleton chi;
                      (match Hashtbl.find_opt fork_channel gid with
                      | Some c -> st.(c) <- all_defs
                      | None -> ());
                      st
                    end
                    else begin
                      if List.exists (fun g -> not (Iset.mem o (Modref.mod_of mr g))) callees
                      then link_all chi;
                      let st = Array.copy empty_state in
                      st.(0) <- Iset.singleton chi;
                      st
                    end
                  end
                in
                match s with
                | Stmt.Fork { handle = Some h; _ } when Iset.mem o (A.pt_var ast h) ->
                  let nd = intern (Svfg.Stmt_node gid) in
                  Array.iter (fun ch -> Iset.iter (fun d -> add_edge t d o nd) ch) after_call;
                  let st = Array.copy empty_state in
                  st.(0) <- Iset.singleton nd;
                  st
                | _ -> after_call)
              | Stmt.Return _ when Iset.mem o (Modref.mod_of mr fid) ->
                link_all (intern (Svfg.Formal_out (fid, o)));
                in_state
              | _ -> (
                match Hashtbl.find_opt join_info gid with
                | Some infos ->
                  let st = Array.copy in_state in
                  List.iter
                    (fun (fg, sf, mods) ->
                      if Iset.mem o mods then begin
                        let fo = intern (Svfg.Formal_out (sf, o)) in
                        if record then Hashtbl.replace join_src fo ();
                        st.(0) <- Iset.add fo st.(0)
                      end;
                      match Hashtbl.find_opt fork_channel fg with
                      | Some c -> st.(c) <- Iset.empty
                      | None -> ())
                    infos;
                  st
                | None -> in_state)
            in
            let changed =
              out.(i) = [||]
              ||
              let old = out.(i) in
              let rec differs c =
                c < nchan && ((not (Iset.equal new_state.(c) old.(c))) || differs (c + 1))
              in
              differs 0
            in
            if changed then begin
              out.(i) <- new_state;
              List.iter push f.Func.succ.(i)
            end
          done)
        objs);
  Svfg.set_owner t (-1)
