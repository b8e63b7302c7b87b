type event = {
  name : string;
  category : string;
  track : int;
  start : float;
  duration : float;
}

let dram_track = -1

type t = { capacity : int; mutable events : event list; mutable count : int; mutable dropped : int }

let create ?(capacity = 200_000) () = { capacity; events = []; count = 0; dropped = 0 }

let record t ~name ~category ~track ~start ~duration =
  if t.count >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    t.events <- { name; category; track; start; duration } :: t.events;
    t.count <- t.count + 1
  end

let events t = List.rev t.events

let length t = t.count

let dropped t = t.dropped

let span t = List.fold_left (fun acc e -> Float.max acc (e.start +. e.duration)) 0.0 t.events

(* Simulated seconds become trace microseconds from time zero; each SM
   is its own tid and DRAM keeps [dram_track], a tid no SM uses. *)
let write_chrome t oc =
  let module Chrome = Gpp_obs.Chrome in
  let w = Chrome.create ~epoch:0.0 oc in
  List.iter
    (fun e ->
      Chrome.complete w ~name:e.name ~cat:e.category ~tid:e.track ~ts:(e.start *. 1e6)
        ~dur:(e.duration *. 1e6))
    (events t);
  Chrome.close w

let summary t =
  let by_category = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let count, busy = try Hashtbl.find by_category e.category with Not_found -> (0, 0.0) in
      Hashtbl.replace by_category e.category (count + 1, busy +. e.duration))
    t.events;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d events over %s (%d dropped)\n" t.count
       (Gpp_util.Units.time_to_string (span t))
       t.dropped);
  Hashtbl.fold (fun category (count, busy) acc -> (category, count, busy) :: acc) by_category []
  |> List.sort compare
  |> List.iter (fun (category, count, busy) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-8s %7d events, %s busy\n" category count
              (Gpp_util.Units.time_to_string busy)));
  Buffer.contents buf
