//! Scripted-peer helpers shared by the protocol tests of this crate and
//! of `brisk-ism` (which is why the module is public rather than
//! `cfg(test)`): the test plays one end of a link by hand.

use brisk_net::{Connection, MemTransport, Transport};
use brisk_proto::Message;
use std::time::Duration;

/// A connected in-memory link: `(accepting end, dialing end)`.
pub fn mem_pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
    let t = MemTransport::new();
    let mut l = t.listen("x").expect("listen");
    let c = t.connect("x").expect("connect");
    let s = l
        .accept(Some(Duration::from_secs(1)))
        .expect("accept")
        .expect("dialed connection pending");
    (s, c)
}

/// Receive and decode the next frame, panicking if none arrives in time.
pub fn recv_msg(conn: &mut Box<dyn Connection>) -> Message {
    let frame = conn
        .recv(Some(Duration::from_secs(2)))
        .expect("link alive")
        .expect("frame expected");
    Message::decode(&frame).expect("well-formed frame")
}
