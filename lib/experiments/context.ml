module Registry = Gpp_workloads.Registry
module Grophecy = Gpp_core.Grophecy
module Engine = Gpp_engine

type t = {
  session : Grophecy.session;
  machine : Gpp_arch.Machine.t;
  instances : (Registry.instance * Grophecy.report) list;
}

(* One batch over the Table I instances on one machine: the batch runner
   creates the calibrated session and runs the cells in paper order,
   which is the exact session/analyze order this module always used, so
   the reports are bit-identical to the pre-engine implementation. *)
let create (config : Engine.Config.t) =
  let machine = config.machine in
  let workloads = List.map Registry.key Registry.paper_instances in
  let batch = Engine.Batch.run config ~workloads in
  match Engine.Batch.failed batch with
  | [] ->
      let reports =
        List.map
          (fun ((cell : Engine.Batch.cell), r) -> (cell.workload, r))
          (Engine.Batch.succeeded batch)
      in
      let instances =
        List.map
          (fun (inst : Registry.instance) -> (inst, List.assoc (Registry.key inst) reports))
          Registry.paper_instances
      in
      let _, session = List.hd batch.Engine.Batch.sessions in
      Ok { session; machine; instances }
  | (_, first) :: _ as failures ->
      (* One error naming every failing workload, not just the first:
         a suite author sees the whole damage.  It keeps the first
         failure's category, so its exit code and HTTP status. *)
      Error
        (Engine.Error.with_message first
           (Printf.sprintf "%d workload(s) failed on %s: %s" (List.length failures)
              machine.Gpp_arch.Machine.id
              (String.concat "; "
                 (List.map
                    (fun ((cell : Engine.Batch.cell), e) ->
                      Printf.sprintf "%s: %s" cell.workload (Engine.Error.message e))
                    failures))))

let session t = t.session

let machine t = t.machine

let instances t = t.instances

let find_report t ~app ~size =
  Option.map snd
    (List.find_opt
       (fun ((i : Registry.instance), _) -> i.app = app && i.size = size)
       t.instances)

let report t ~app ~size =
  match find_report t ~app ~size with
  | Some report -> report
  | None ->
      invalid_arg
        (Printf.sprintf "Context.report: no report for %S/%S (known: %s)" app size
           (String.concat ", " (List.map (fun (i, _) -> Registry.key i) t.instances)))

let reports_of_app t app =
  List.filter_map
    (fun ((i : Registry.instance), report) -> if i.app = app then Some (i.size, report) else None)
    t.instances

let apps t =
  List.rev
    (List.fold_left
       (fun acc ((i : Registry.instance), _) -> if List.mem i.app acc then acc else i.app :: acc)
       [] t.instances)
