//! A loopback TCP forwarder that counts connections and bytes each way.
//! The traced pass of `tcp_search` dials it instead of the server, which is
//! how `core.net.bytes_*_per_search` are read without touching `core.net`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Counters are statistics only; `Relaxed` publishes nothing else.
#[derive(Default)]
pub struct Traffic {
    pub connections: AtomicU64,
    pub to_server: AtomicU64,
    pub to_client: AtomicU64,
}

pub struct Forwarder {
    addr: SocketAddr,
    traffic: Arc<Traffic>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Copy `from` into `to` until end of stream, then pass the half-close on.
fn pump(mut from: TcpStream, mut to: TcpStream, counter: impl Fn(u64)) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter(n as u64);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

impl Forwarder {
    /// Listen on a loopback port and forward every connection to `upstream`.
    pub fn start(upstream: SocketAddr) -> std::io::Result<Forwarder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let traffic = Arc::new(Traffic::default());
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (t, s) = (Arc::clone(&traffic), Arc::clone(&stop));
        let accept = std::thread::spawn(move || {
            for client in listener.incoming() {
                // `stop` is set before the wake-up connection is made.
                if s.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { continue };
                let Ok(server) = TcpStream::connect(upstream) else { continue };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(client_read), Ok(server_read)) = (client.try_clone(), server.try_clone())
                else {
                    continue;
                };
                t.connections.fetch_add(1, Ordering::Relaxed);
                let (up, down) = (Arc::clone(&t), Arc::clone(&t));
                let mut handles =
                    pumps.lock().expect("pump list lock is never held across a panic");
                handles.retain(|h| !h.is_finished());
                handles.push(std::thread::spawn(move || {
                    pump(client_read, server, |n| {
                        up.to_server.fetch_add(n, Ordering::Relaxed);
                    })
                }));
                handles.push(std::thread::spawn(move || {
                    pump(server_read, client, |n| {
                        down.to_client.fetch_add(n, Ordering::Relaxed);
                    })
                }));
            }
            let handles = std::mem::take(
                &mut *pumps.lock().expect("pump list lock is never held across a panic"),
            );
            for handle in handles {
                let _ = handle.join();
            }
        });
        Ok(Forwarder { addr, traffic, stop, accept: Some(accept) })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Stop accepting and wait for every pump; callers close their
    /// connections first, or the pumps never see end of stream.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_both_ways_and_counts_bytes() {
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = echo.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = echo.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(b"pong!!!").unwrap();
        });
        let forwarder = Forwarder::start(upstream).unwrap();
        let mut client = TcpStream::connect(forwarder.addr()).unwrap();
        client.write_all(b"ping!").unwrap();
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"pong!!!");
        drop(client);
        server.join().unwrap();
        let traffic = Arc::clone(&forwarder.traffic);
        forwarder.stop();
        assert_eq!(traffic.connections.load(Ordering::Relaxed), 1);
        assert_eq!(traffic.to_server.load(Ordering::Relaxed), 5);
        assert_eq!(traffic.to_client.load(Ordering::Relaxed), 7);
    }
}
