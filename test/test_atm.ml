(* Tests for the ATM network substrate and devices. *)

let ms = Sim.Time.ms
let us = Sim.Time.us
let time = Alcotest.testable Sim.Time.pp ( = )

let crc_tests =
  [
    Alcotest.test_case "known vector" `Quick (fun () ->
        (* CRC-32("123456789") = 0xCBF43926 *)
        Alcotest.(check int) "check value" 0xCBF43926
          (Atm.Crc32.digest_bytes (Bytes.of_string "123456789")));
    Alcotest.test_case "empty input" `Quick (fun () ->
        Alcotest.(check int) "crc" 0 (Atm.Crc32.digest_bytes Bytes.empty));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"single bit flip changes the digest" ~count:100
         QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 200)) nat)
         (fun (s, flip) ->
           let b = Bytes.of_string s in
           let original = Atm.Crc32.digest_bytes b in
           let i = flip mod (Bytes.length b * 8) in
           let byte = i / 8 and bit = i mod 8 in
           Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
           Atm.Crc32.digest_bytes b <> original));
  ]

let util_tests =
  [
    Alcotest.test_case "u16/u32/i64 round-trip" `Quick (fun () ->
        let b = Bytes.create 16 in
        Atm.Util.put_u16 b 0 0xBEEF;
        Atm.Util.put_u32 b 2 0xDEADBEEF;
        Atm.Util.put_time b 6 (Sim.Time.ns 0x1_0203_0405);
        Alcotest.(check int) "u16" 0xBEEF (Atm.Util.get_u16 b 0);
        Alcotest.(check int) "u32" 0xDEADBEEF (Atm.Util.get_u32 b 2);
        Alcotest.(check string) "i64 wire form, big-endian"
          "\000\000\000\001\002\003\004\005" (Bytes.sub_string b 6 8);
        Alcotest.check time "i64" (Sim.Time.ns 0x1_0203_0405)
          (Atm.Util.get_time b 6));
  ]

let cell_tests =
  [
    Alcotest.test_case "cells are 53 bytes, 424 bits" `Quick (fun () ->
        Alcotest.(check int) "total" 53 Atm.Cell.total_bytes;
        Alcotest.(check int) "bits" 424 Atm.Cell.wire_bits);
    Alcotest.test_case "payload size is enforced" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Cell.make: payload must be 48 bytes") (fun () ->
            ignore (Atm.Cell.make ~vci:1 ~last:false (Bytes.create 10))));
    Alcotest.test_case "tx time at 100 Mbit/s is 4.24us" `Quick (fun () ->
        Alcotest.check time "4240ns" (Sim.Time.ns 4240)
          (Atm.Cell.tx_time ~bandwidth_bps:100_000_000));
  ]

let aal5_tests =
  [
    Alcotest.test_case "frame_cells accounts for the trailer" `Quick (fun () ->
        Alcotest.(check int) "0 bytes" 1 (Atm.Aal5.frame_cells 0);
        Alcotest.(check int) "40 bytes" 1 (Atm.Aal5.frame_cells 40);
        Alcotest.(check int) "41 bytes" 2 (Atm.Aal5.frame_cells 41);
        Alcotest.(check int) "88 bytes" 2 (Atm.Aal5.frame_cells 88));
    Alcotest.test_case "only the final cell is marked last" `Quick (fun () ->
        let cells = Atm.Aal5.segment ~vci:5 (Bytes.create 100) in
        Alcotest.(check int) "count" 3 (List.length cells);
        List.iteri
          (fun i (c : Atm.Cell.t) ->
            Alcotest.(check bool) "last flag" (i = 2) c.last;
            Alcotest.(check int) "vci" 5 c.vci)
          cells);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"segment/reassemble round-trips" ~count:200
         QCheck2.Gen.(string_size ~gen:char (int_range 0 5000))
         (fun s ->
           let payload = Bytes.of_string s in
           let cells = Atm.Aal5.segment ~vci:1 payload in
           let r = Atm.Aal5.Reassembler.create () in
           let rec feed = function
             | [] -> false
             | [ c ] -> begin
                 match Atm.Aal5.Reassembler.push r c with
                 | Some (Ok b) -> Bytes.equal b payload
                 | Some (Error _) | None -> false
               end
             | c :: rest ->
                 (match Atm.Aal5.Reassembler.push r c with
                 | None -> feed rest
                 | Some _ -> false)
           in
           feed cells));
    Alcotest.test_case "corruption is detected" `Quick (fun () ->
        let cells = Atm.Aal5.segment ~vci:1 (Bytes.of_string "hello, pegasus") in
        let r = Atm.Aal5.Reassembler.create () in
        (match cells with
        | [ c ] ->
            Bytes.set c.buf (c.off + 3) 'X';
            (match Atm.Aal5.Reassembler.push r c with
            | Some (Error Atm.Aal5.Crc_mismatch) -> ()
            | _ -> Alcotest.fail "expected CRC mismatch")
        | _ -> Alcotest.fail "expected one cell"));
    Alcotest.test_case "reassembler recovers after an error" `Quick (fun () ->
        let r = Atm.Aal5.Reassembler.create () in
        let bad = Atm.Aal5.segment ~vci:1 (Bytes.of_string "corrupt me") in
        (match bad with
        | [ c ] ->
            Bytes.set c.buf (c.off + 0) '!';
            ignore (Atm.Aal5.Reassembler.push r c)
        | _ -> Alcotest.fail "one cell expected");
        let ok = Atm.Aal5.segment ~vci:1 (Bytes.of_string "clean frame") in
        let result =
          List.fold_left (fun _ c -> Atm.Aal5.Reassembler.push r c) None ok
        in
        match result with
        | Some (Ok b) -> Alcotest.(check string) "payload" "clean frame" (Bytes.to_string b)
        | _ -> Alcotest.fail "expected clean reassembly");
    Alcotest.test_case "oversized frame reports Too_long" `Quick (fun () ->
        let r = Atm.Aal5.Reassembler.create ~max_frame:96 () in
        let cell () = Atm.Cell.make ~vci:1 ~last:false (Bytes.create 48) in
        ignore (Atm.Aal5.Reassembler.push r (cell ()));
        ignore (Atm.Aal5.Reassembler.push r (cell ()));
        match Atm.Aal5.Reassembler.push r (cell ()) with
        | Some (Error Atm.Aal5.Too_long) -> ()
        | _ -> Alcotest.fail "expected Too_long");
  ]

(* A one-link rig: sender closure + received cells with arrival times. *)
let link_rig ?(bandwidth_bps = 100_000_000) ?(prop = us 5) ?(queue_cells = 256) ()
    =
  let e = Sim.Engine.create () in
  let received = ref [] in
  let link =
    Atm.Link.create e ~bandwidth_bps ~prop ~queue_cells
      ~rx:(fun c -> received := (Sim.Engine.now e, c) :: !received)
      ()
  in
  (e, link, received)

let link_tests =
  [
    Alcotest.test_case "delivery = serialisation + propagation" `Quick (fun () ->
        let e, link, received = link_rig () in
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true);
        Sim.Engine.run e;
        match !received with
        | [ (at, _) ] ->
            Alcotest.check time "arrival"
              (Sim.Time.add (Sim.Time.ns 4240) (us 5))
              at
        | _ -> Alcotest.fail "expected one cell");
    Alcotest.test_case "back-to-back cells serialise in turn" `Quick (fun () ->
        let e, link, received = link_rig () in
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:false);
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true);
        Sim.Engine.run e;
        match List.rev !received with
        | [ (t1, _); (t2, _) ] ->
            Alcotest.check time "spacing" (Sim.Time.ns 4240) (Sim.Time.sub t2 t1)
        | _ -> Alcotest.fail "expected two cells");
    Alcotest.test_case "queue overflow drops and counts" `Quick (fun () ->
        let e, link, received = link_rig ~queue_cells:4 () in
        for _ = 1 to 10 do
          Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true)
        done;
        Sim.Engine.run e;
        Alcotest.(check int) "dropped" 6 (Atm.Link.cells_dropped link);
        Alcotest.(check int) "delivered" 4 (List.length !received);
        Alcotest.(check int) "sent counter" 4 (Atm.Link.cells_sent link));
    Alcotest.test_case "utilisation reflects busy time" `Quick (fun () ->
        let e, link, _ = link_rig () in
        (* 100 cells at 4.24us each = 424us busy *)
        for _ = 1 to 100 do
          Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true)
        done;
        Sim.Engine.run e ~until:(ms 1);
        let u = Atm.Link.utilisation link ~since:Sim.Time.zero in
        Alcotest.(check bool) "~42%" true (u > 0.40 && u < 0.45));
  ]

let switch_tests =
  [
    Alcotest.test_case "routes and rewrites VCIs" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let got = ref [] in
        let out =
          Atm.Link.create e ~rx:(fun c -> got := c.Atm.Cell.vci :: !got) ()
        in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:4 () in
        Atm.Switch.attach_output sw 1 out;
        Atm.Switch.add_route sw ~in_port:0 ~in_vci:42 ~out_port:1 ~out_vci:99;
        Atm.Switch.input sw 0 (Atm.Cell.make_blank ~vci:42 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check (list int)) "rewritten" [ 99 ] !got;
        Alcotest.(check int) "switched" 1 (Atm.Switch.cells_switched sw));
    Alcotest.test_case "unroutable cells are dropped" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:2 () in
        Atm.Switch.input sw 0 (Atm.Cell.make_blank ~vci:7 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "unroutable" 1 (Atm.Switch.cells_unroutable sw));
    Alcotest.test_case "duplicate route rejected, removal works" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:2 () in
        Atm.Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:2;
        Alcotest.check_raises "dup" (Invalid_argument "Switch.add_route: route exists")
          (fun () ->
            Atm.Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:3);
        Atm.Switch.remove_route sw ~in_port:0 ~in_vci:1;
        Alcotest.(check bool) "gone" true
          (Atm.Switch.route sw ~in_port:0 ~in_vci:1 = None));
  ]

(* Standard two-host, one-switch rig used by several suites. *)
let star_net () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"fairisle" ~ports:8 in
  let a = Atm.Net.add_host net ~name:"hosta" in
  let b = Atm.Net.add_host net ~name:"hostb" in
  Atm.Net.connect net a sw;
  Atm.Net.connect net b sw;
  (e, net, a, b)

let net_tests =
  [
    Alcotest.test_case "frame crosses a switched path" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref None in
        let rx = Atm.Net.frame_rx ~rx:(fun p -> got := Some (Bytes.to_string p)) () in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx in
        Alcotest.(check int) "two hops" 2 (Atm.Net.vc_hops vc);
        Atm.Net.send_frame vc (Bytes.of_string "over the fabric");
        Sim.Engine.run e;
        Alcotest.(check (option string)) "payload" (Some "over the fabric") !got);
    Alcotest.test_case "independent VCs get distinct VCIs at the sink" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        let vc1 = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        let vc2 = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        Alcotest.(check bool) "distinct" true
          (Atm.Net.vc_dst_vci vc1 <> Atm.Net.vc_dst_vci vc2));
    Alcotest.test_case "close_vc stops delivery" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let count = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr count) in
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Atm.Net.close_vc net vc;
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "one delivery" 1 !count);
    Alcotest.test_case "no path raises" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Alcotest.check_raises "no path" (Failure "Net.open_vc: no path") (fun () ->
            ignore (Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()))));
    Alcotest.test_case "find looks nodes up by name" `Quick (fun () ->
        let _, net, a, _ = star_net () in
        Alcotest.(check string) "name" "hosta"
          (Atm.Net.node_name net (Atm.Net.find net "hosta"));
        Alcotest.(check bool) "same node" true (Atm.Net.find net "hosta" = a));
    Alcotest.test_case "multi-switch path installs all hops" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
        let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
        let s3 = Atm.Net.add_switch net ~name:"s3" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s1;
        Atm.Net.connect net s1 s2;
        Atm.Net.connect net s2 s3;
        Atm.Net.connect net s3 b;
        let got = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr got) in
        Alcotest.(check int) "hops" 4 (Atm.Net.vc_hops vc);
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "delivered" 1 !got);
  ]

let tile_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"tile packet marshal round-trips" ~count:200
         QCheck2.Gen.(
           tup5 (int_range 0 200) (int_range 0 100) (int_range 0 10000)
             (int_range 1 16) (int_range 2 64))
         (fun (x, y, frame, count, bpt) ->
           let data = Bytes.init (count * bpt) (fun i -> Char.chr (i land 0xff)) in
           let p =
             {
               Atm.Tile.x;
               y;
               frame;
               count;
               bytes_per_tile = bpt;
               captured_at = Sim.Time.us 123;
               data;
             }
           in
           match Atm.Tile.unmarshal (Atm.Tile.marshal p) with
           | Some q ->
               q.Atm.Tile.x = x && q.y = y && q.frame = frame && q.count = count
               && q.bytes_per_tile = bpt
               && q.captured_at = Sim.Time.us 123
               && Bytes.equal q.data data
           | None -> false));
    Alcotest.test_case "unmarshal rejects junk" `Quick (fun () ->
        Alcotest.(check bool) "short" true (Atm.Tile.unmarshal (Bytes.create 3) = None);
        let b = Bytes.make 40 '\042' in
        Alcotest.(check bool) "inconsistent" true (Atm.Tile.unmarshal b = None));
  ]

(* Camera wired to display across the star network. *)
let video_rig ?mode ?release () =
  let e, net, a, b = star_net () in
  let display = Atm.Display.create e () in
  let vc =
    Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Display.cell_rx display c)
  in
  let camera =
    Atm.Camera.create e ~vc ~width:64 ~height:48 ~fps:25 ?mode ?release ()
  in
  Atm.Display.add_window display ~vci:(Atm.Net.vc_dst_vci vc) ~x:100 ~y:50
    ~width:64 ~height:48;
  (e, net, camera, display, Atm.Net.vc_dst_vci vc)

let camera_display_tests =
  [
    Alcotest.test_case "video flows camera to display untouched by hosts" `Quick
      (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        Atm.Camera.stop camera;
        Alcotest.(check int) "frames captured" 2 (Atm.Camera.frames_captured camera);
        (* 64x48 = 8x6 tiles; all should be inside the window. *)
        Alcotest.(check bool) "tiles blitted" true
          (Atm.Display.tiles_blitted display ~vci >= 48);
        Alcotest.(check int) "nothing clipped" 0
          (Atm.Display.tiles_clipped display ~vci);
        Alcotest.(check int) "no faulty frames" 0 (Atm.Display.faulty_frames display));
    Alcotest.test_case "pixels land at the window offset" `Quick (fun () ->
        let e, _, camera, display, _ = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        (* Window is at (100,50); the framebuffer should be non-zero there
           and untouched at the origin. *)
        let painted = ref false in
        for dx = 0 to 63 do
          if Atm.Display.screen_byte display ~x:(100 + dx) ~y:51 <> 0 then
            painted := true
        done;
        Alcotest.(check bool) "window painted" true !painted;
        Alcotest.(check int) "outside untouched" 0
          (Atm.Display.screen_byte display ~x:0 ~y:0));
    Alcotest.test_case "moving a window redirects subsequent tiles" `Quick
      (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 45);
        Atm.Display.move_window display ~vci ~x:500 ~y:500;
        Sim.Engine.run e ~until:(ms 90);
        let painted = ref false in
        for dx = 0 to 63 do
          if Atm.Display.screen_byte display ~x:(500 + dx) ~y:501 <> 0 then
            painted := true
        done;
        Alcotest.(check bool) "new position painted" true !painted);
    Alcotest.test_case "resize clips out-of-window tiles" `Quick (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Display.resize_window display ~vci ~width:32 ~height:24;
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 45);
        Alcotest.(check bool) "clipped" true
          (Atm.Display.tiles_clipped display ~vci > 0));
    Alcotest.test_case "tile release beats whole-frame release on latency" `Quick
      (fun () ->
        let run release =
          let e, _, camera, display, vci = video_rig ~release () in
          Atm.Camera.start camera;
          Sim.Engine.run e ~until:(ms 200);
          Sim.Stats.Samples.percentile
            (Atm.Display.staging_latency_us display ~vci)
            50.0
        in
        let tile = run `Tile_row and frame = run `Whole_frame in
        Alcotest.(check bool)
          (Printf.sprintf "tile %.0fus << frame %.0fus" tile frame)
          true
          (tile *. 10.0 < frame));
    Alcotest.test_case "JPEG shrinks the data rate" `Quick (fun () ->
        let e, _, camera, display, _ =
          video_rig ~mode:(Atm.Camera.Jpeg { ratio = 8.0 }) ()
        in
        ignore display;
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        let raw_rate = 64. *. 48. *. 8. *. 25. in
        Alcotest.(check bool) "about 8x less" true
          (Atm.Camera.data_rate_bps camera < raw_rate /. 7.0));
    Alcotest.test_case "frame callback fires per frame" `Quick (fun () ->
        let e, _, camera, _, _ = video_rig () in
        let frames = ref [] in
        Atm.Camera.on_frame camera (fun ~frame ~captured_at:_ ->
            frames := frame :: !frames);
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 130);
        Alcotest.(check (list int)) "frames" [ 0; 1; 2 ] (List.rev !frames));
  ]

let audio_tests =
  [
    Alcotest.test_case "audio arrives with sequence integrity" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 100);
        Atm.Audio.Source.stop src;
        Sim.Engine.run e;
        Alcotest.(check int) "all cells" (Atm.Audio.Source.cells_sent src)
          (Atm.Audio.Sink.cells_received sink);
        Alcotest.(check int) "no loss" 0 (Atm.Audio.Sink.lost_cells sink);
        Alcotest.(check int) "no late cells" 0 (Atm.Audio.Sink.late_cells sink);
        Alcotest.(check bool) "sent plenty" true (Atm.Audio.Source.cells_sent src > 200));
    Alcotest.test_case "idle network keeps jitter tiny" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check bool) "sub-microsecond" true
          (Atm.Audio.Sink.jitter_us sink < 1.0));
    Alcotest.test_case "playout callbacks are isochronous" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        let times = ref [] in
        Atm.Audio.Sink.on_playout sink (fun ~seq:_ ~stamp:_ ->
            times := Sim.Engine.now e :: !times);
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 20);
        let rec gaps = function
          | a :: (b :: _ as rest) -> Sim.Time.sub a b :: gaps rest
          | _ -> []
        in
        let all_equal = function
          | [] -> true
          | g :: rest -> List.for_all (fun x -> x = g) rest
        in
        Alcotest.(check bool) "even spacing" true (all_equal (gaps !times));
        Alcotest.(check bool) "some playout" true (List.length !times > 10));
  ]

let control_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"control messages round-trip" ~count:100
         QCheck2.Gen.(
           oneof
             [
               return Atm.Control.Start;
               return Atm.Control.Stop;
               map3
                 (fun s u t ->
                   Atm.Control.Sync { stream = s; unit_id = u; stamp = Sim.Time.us t })
                 (int_range 0 100) (int_range 0 10000) (int_range 0 1000000);
               map3
                 (fun s o t ->
                   Atm.Control.Index_mark
                     { stream = s; offset = o; stamp = Sim.Time.us t })
                 (int_range 0 100) (int_range 0 1000000) (int_range 0 1000000);
             ])
         (fun msg -> Atm.Control.unmarshal (Atm.Control.marshal msg) = Some msg));
    Alcotest.test_case "merger combines control streams" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref [] in
        let out_rx =
          Atm.Net.frame_rx
            ~rx:(fun p ->
              match Atm.Control.unmarshal p with
              | Some m -> got := m :: !got
              | None -> ())
            ()
        in
        let out = Atm.Net.open_vc net ~src:a ~dst:b ~rx:out_rx in
        let merger = Atm.Control.Merger.create ~out () in
        (* Two device control VCs loop back into the merger on host a. *)
        let dev1 = Atm.Net.open_vc net ~src:b ~dst:a ~rx:(Atm.Control.Merger.rx merger) in
        let dev2 = Atm.Net.open_vc net ~src:b ~dst:a ~rx:(Atm.Control.Merger.rx merger) in
        Atm.Net.send_frame dev1
          (Atm.Control.marshal
             (Atm.Control.Sync { stream = 1; unit_id = 7; stamp = Sim.Time.us 10 }));
        Atm.Net.send_frame dev2
          (Atm.Control.marshal
             (Atm.Control.Sync { stream = 2; unit_id = 7; stamp = Sim.Time.us 10 }));
        Sim.Engine.run e;
        Alcotest.(check int) "forwarded" 2 (Atm.Control.Merger.forwarded merger);
        Alcotest.(check int) "received" 2 (List.length !got));
    Alcotest.test_case "playback controller measures skew" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let pb = Atm.Control.Playback.create e () in
        (* Stream 1 renders 1 ms after capture, stream 2 renders 3 ms after. *)
        for u = 0 to 9 do
          let stamp = Sim.Time.ms (10 * (u + 1)) in
          List.iter
            (fun cell -> Atm.Control.Playback.control_rx pb cell)
            (Atm.Aal5.segment ~vci:1
               (Atm.Control.marshal
                  (Atm.Control.Sync { stream = 1; unit_id = u; stamp })));
          List.iter
            (fun cell -> Atm.Control.Playback.control_rx pb cell)
            (Atm.Aal5.segment ~vci:1
               (Atm.Control.marshal
                  (Atm.Control.Sync { stream = 2; unit_id = u; stamp })));
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add stamp (Sim.Time.ms 1))
               (fun () -> Atm.Control.Playback.data_event pb ~stream:1 ~unit_id:u));
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add stamp (Sim.Time.ms 3))
               (fun () -> Atm.Control.Playback.data_event pb ~stream:2 ~unit_id:u))
        done;
        Sim.Engine.run e;
        let skew = Atm.Control.Playback.skew_us pb ~a:1 ~b:2 in
        Alcotest.(check int) "pairs" 10 (Sim.Stats.Samples.count skew);
        Alcotest.(check (float 1.0)) "2ms skew" 2000.0
          (Sim.Stats.Samples.percentile skew 50.0);
        (* Aligning stream 1 (fast) requires ~2ms of delay. *)
        let d = Atm.Control.Playback.recommended_delay pb ~stream:1 in
        Alcotest.(check bool) "recommended ~2ms" true
          (Sim.Time.to_ms_f d > 1.9 && Sim.Time.to_ms_f d < 2.1);
        Alcotest.check time "slow stream needs none" Sim.Time.zero
          (Atm.Control.Playback.recommended_delay pb ~stream:2));
  ]

let traffic_tests =
  [
    Alcotest.test_case "CBR sends at the configured rate" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr got) in
        let source = Atm.Traffic.cbr e ~vc ~rate_bps:42_400_000 in
        Atm.Traffic.start source;
        Sim.Engine.run e ~until:(ms 10);
        Atm.Traffic.stop source;
        Sim.Engine.run e;
        (* 42.4 Mbit/s = one cell per 10us = 1000 cells in 10ms *)
        Alcotest.(check bool) "about 1000" true (!got >= 990 && !got <= 1010));
    Alcotest.test_case "Poisson averages the configured rate" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr got) in
        let rng = Sim.Rng.create ~seed:1L () in
        let source = Atm.Traffic.poisson e ~vc ~rate_bps:42_400_000 ~rng in
        Atm.Traffic.start source;
        Sim.Engine.run e ~until:(ms 50);
        Atm.Traffic.stop source;
        Sim.Engine.run e;
        (* expectation 5000; allow generous tolerance *)
        Alcotest.(check bool) "rate" true (!got > 4200 && !got < 5800));
    Alcotest.test_case "on/off source alternates" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        let rng = Sim.Rng.create ~seed:2L () in
        let source =
          Atm.Traffic.on_off e ~vc ~peak_bps:84_800_000 ~mean_on:(ms 2)
            ~mean_off:(ms 2) ~rng
        in
        Atm.Traffic.start source;
        Sim.Engine.run e ~until:(ms 100);
        Atm.Traffic.stop source;
        Sim.Engine.run e;
        let sent = Atm.Traffic.cells_sent source in
        (* Peak would be 20000 cells in 100ms; ~50% duty cycle expected. *)
        Alcotest.(check bool)
          (Printf.sprintf "duty cycled (%d)" sent)
          true
          (sent > 3000 && sent < 17000));
  ]

let reservation_tests =
  [
    Alcotest.test_case "reserved VC keeps its latency under load" `Quick
      (fun () ->
        let run reserved =
          let e, net, a, b = star_net () in
          let arrivals = Sim.Stats.Samples.create () in
          let stamps = Hashtbl.create 64 in
          let next = ref 0 in
          let vc =
            Atm.Net.open_vc
              ?reserve_bps:(if reserved then Some 1_000_000 else None)
              net ~src:a ~dst:b
              ~rx:(fun c ->
                (match Hashtbl.find_opt stamps c.Atm.Cell.vci with
                | Some _ -> ()
                | None -> ());
                Sim.Stats.Samples.add arrivals
                  (Sim.Time.to_us_f (Sim.Engine.now e)))
          in
          (* competing best-effort flood on the same path *)
          let cross_vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
          let rng = Sim.Rng.create ~seed:3L () in
          let cross =
            Atm.Traffic.on_off e ~vc:cross_vc ~peak_bps:300_000_000
              ~mean_on:(Sim.Time.us 500) ~mean_off:(Sim.Time.ms 1) ~rng
          in
          Atm.Traffic.start cross;
          (* one probe cell every ms; jitter = spread of inter-arrivals *)
          let sent = Sim.Stats.Samples.create () in
          Sim.Engine.every e ~period:(Sim.Time.ms 1) (fun () ->
              incr next;
              Sim.Stats.Samples.add sent (Sim.Time.to_us_f (Sim.Engine.now e));
              Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
              !next < 100);
          Sim.Engine.run e ~until:(Sim.Time.ms 150);
          Atm.Traffic.stop cross;
          (* per-cell one-way delay spread *)
          let n = min (Sim.Stats.Samples.count sent) (Sim.Stats.Samples.count arrivals) in
          let s = Sim.Stats.Samples.to_array sent
          and r = Sim.Stats.Samples.to_array arrivals in
          let delays = Sim.Stats.Summary.create () in
          for i = 0 to n - 1 do
            Sim.Stats.Summary.add delays (r.(i) -. s.(i))
          done;
          Sim.Stats.Summary.stddev delays
        in
        let best_effort = run false and reserved = run true in
        Alcotest.(check bool)
          (Printf.sprintf "reserved %.1fus << best-effort %.1fus" reserved
             best_effort)
          true
          (reserved *. 5.0 < best_effort));
    Alcotest.test_case "admission control refuses over-subscription" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        ignore (Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b ~rx:(fun _ -> ()));
        Alcotest.check_raises "refused"
          (Failure "Net.open_vc: reservation refused (admission)") (fun () ->
            ignore
              (Atm.Net.open_vc ~reserve_bps:40_000_000 net ~src:a ~dst:b
                 ~rx:(fun _ -> ()))));
    Alcotest.test_case "closing a reserved VC returns the bandwidth" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        let vc =
          Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b
            ~rx:(fun _ -> ())
        in
        Alcotest.(check (option int)) "recorded" (Some 60_000_000)
          (Atm.Net.vc_reserved vc);
        Atm.Net.close_vc net vc;
        (* now the second reservation fits *)
        ignore
          (Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b
             ~rx:(fun _ -> ())));
  ]

let stacking_tests =
  [
    Alcotest.test_case "a higher window occludes; raising repairs" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:64 ~height:64;
        Atm.Display.add_window d ~vci:2 ~x:0 ~y:0 ~width:64 ~height:64;
        let packet vci tag =
          let data = Bytes.make (Atm.Tile.raw_bytes * 2) tag in
          let p =
            {
              Atm.Tile.x = 0;
              y = 0;
              frame = 0;
              count = 2;
              bytes_per_tile = Atm.Tile.raw_bytes;
              captured_at = Sim.Time.zero;
              data;
            }
          in
          List.iter
            (fun c -> Atm.Display.cell_rx d c)
            (Atm.Aal5.segment ~vci (Atm.Tile.marshal p))
        in
        (* window 2 is newer = on top: it wins the shared pixels *)
        packet 1 'a';
        packet 2 'b';
        Alcotest.(check int) "top window shows" (Char.code 'b')
          (Atm.Display.screen_byte d ~x:3 ~y:3);
        Alcotest.(check bool) "occluded pixels counted" true
          (Atm.Display.pixels_occluded d ~vci:1 = 0);
        packet 1 'a';
        Alcotest.(check bool) "bottom window occluded now" true
          (Atm.Display.pixels_occluded d ~vci:1 > 0);
        Alcotest.(check int) "still shows top" (Char.code 'b')
          (Atm.Display.screen_byte d ~x:3 ~y:3);
        (* raise window 1: the next repaint takes the pixels over *)
        Atm.Display.raise_window d ~vci:1;
        packet 1 'a';
        Alcotest.(check int) "raised window repaired" (Char.code 'a')
          (Atm.Display.screen_byte d ~x:3 ~y:3));
    Alcotest.test_case "lower_window yields the pixels on repaint" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:16 ~height:16;
        Atm.Display.add_window d ~vci:2 ~x:0 ~y:0 ~width:16 ~height:16;
        Atm.Display.lower_window d ~vci:2;
        Alcotest.(check bool) "2 below 1" true
          (Atm.Display.z_order d ~vci:2 < Atm.Display.z_order d ~vci:1));
    Alcotest.test_case "window-manager decoration is paintable over" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.decorate d ~x:0 ~y:0 ~width:100 ~height:10 ~value:0xEE;
        Alcotest.(check int) "title bar drawn" 0xEE
          (Atm.Display.screen_byte d ~x:50 ~y:5);
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:64 ~height:64;
        let data = Bytes.make Atm.Tile.raw_bytes 'w' in
        let p =
          {
            Atm.Tile.x = 0;
            y = 0;
            frame = 0;
            count = 1;
            bytes_per_tile = Atm.Tile.raw_bytes;
            captured_at = Sim.Time.zero;
            data;
          }
        in
        List.iter (fun c -> Atm.Display.cell_rx d c)
          (Atm.Aal5.segment ~vci:1 (Atm.Tile.marshal p));
        Alcotest.(check int) "window paints over decoration" (Char.code 'w')
          (Atm.Display.screen_byte d ~x:3 ~y:3));
  ]

let conservation_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"frames are conserved through the fabric under light load"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 2000))
         (fun sizes ->
           let e, net, a, b = star_net () in
           let received = ref 0 and received_bytes = ref 0 in
           let vc =
             Atm.Net.open_vc net ~src:a ~dst:b
               ~rx:
                 (Atm.Net.frame_rx
                    ~rx:(fun p ->
                      incr received;
                      received_bytes := !received_bytes + Bytes.length p)
                    ())
           in
           (* spaced 1ms apart: far below line rate, nothing may drop *)
           List.iteri
             (fun i size ->
               ignore
                 (Sim.Engine.schedule e ~delay:(Sim.Time.ms i) (fun () ->
                      Atm.Net.send_frame vc (Bytes.create size))))
             sizes;
           Sim.Engine.run e;
           !received = List.length sizes
           && !received_bytes = List.fold_left ( + ) 0 sizes
           && Atm.Net.total_cells_dropped net = 0));
  ]

(* 2^32 ns is ~4.3 s of simulated time: a stamp past it needs the upper
   half of the 8-byte field, which a 32-bit encoding would drop. *)
let late = Sim.Time.ns ((1 lsl 32) + 123_457)

let codec_tests =
  [
    Alcotest.test_case "stamps past 2^32 ns round-trip Tile, Control, Audio"
      `Quick (fun () ->
        let p =
          {
            Atm.Tile.x = 1;
            y = 2;
            frame = 3;
            count = 1;
            bytes_per_tile = Atm.Tile.raw_bytes;
            captured_at = late;
            data = Bytes.make Atm.Tile.raw_bytes 'p';
          }
        in
        (match Atm.Tile.unmarshal (Atm.Tile.marshal p) with
        | Some q -> Alcotest.check time "tile" late q.Atm.Tile.captured_at
        | None -> Alcotest.fail "tile did not unmarshal");
        List.iter
          (fun msg ->
            Alcotest.(check bool) "control" true
              (Atm.Control.unmarshal (Atm.Control.marshal msg) = Some msg))
          [
            Atm.Control.Sync { stream = 1; unit_id = 2; stamp = late };
            Atm.Control.Index_mark { stream = 1; offset = 2; stamp = late };
          ];
        (* Audio stamps are the send time: start the source past 2^32 ns
           and check the sink decodes each cell's stamp as sent. *)
        let e, net, a, b = star_net () in
        Sim.Engine.run e ~until:late;
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        let sent = ref [] and played = ref [] in
        Atm.Audio.Source.on_mark src ~every:1 (fun ~seq ~stamp ->
            sent := (seq, stamp) :: !sent);
        Atm.Audio.Sink.on_playout sink (fun ~seq ~stamp ->
            played := (seq, stamp) :: !played);
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(Sim.Time.add late (ms 10));
        Atm.Audio.Source.stop src;
        Sim.Engine.run e;
        Alcotest.(check bool) "some cells played" true (List.length !played > 10);
        List.iter
          (fun (seq, stamp) ->
            Alcotest.(check bool) "stamp past 2^32 ns" true Sim.Time.(stamp >= late);
            Alcotest.check time
              (Printf.sprintf "audio seq %d" seq)
              (List.assoc seq !sent) stamp)
          !played);
  ]

let () =
  Alcotest.run "atm"
    [
      ("crc32", crc_tests);
      ("util", util_tests);
      ("cell", cell_tests);
      ("aal5", aal5_tests);
      ("link", link_tests);
      ("switch", switch_tests);
      ("net", net_tests);
      ("tile", tile_tests);
      ("camera-display", camera_display_tests);
      ("audio", audio_tests);
      ("control", control_tests);
      ("codec", codec_tests);
      ("traffic", traffic_tests);
      ("reservation", reservation_tests);
      ("stacking", stacking_tests);
      ("conservation", conservation_tests);
    ]
