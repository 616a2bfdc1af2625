//! The peer of the client-stub tests: a thread that answers every call
//! with the call's own payload until the connection ends.

use virt_rpc::message::Packet;
use virt_rpc::transport::Transport;

pub fn spawn(server: impl Transport + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(frame) = server.recv_frame() {
            let call = Packet::from_body(&frame).expect("valid call");
            let reply = Packet {
                header: call.header.reply_ok(),
                payload: call.payload,
            };
            // Prefix and body in one write, as the daemon sends them: a
            // reply that arrives in two pieces wakes its reader twice.
            if server.send_framed(&reply.to_frame()).is_err() {
                break;
            }
        }
    })
}
