//! A small blocking client for the line-delimited JSON protocol.
//!
//! Used by `ridl client`, the server smoke job, and the tests/bench. It
//! deliberately mirrors what a scripted `nc` session would do: one
//! request line out, one response line in.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::{obj, parse, Json};

/// A connected protocol client. One request in flight at a time
/// (requests carry monotonically increasing ids).
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
}

/// A client-side failure: transport I/O, or a malformed response line.
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client error: {}", self.0)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError(format!("io: {e}"))
    }
}

impl Client {
    /// Connects to a server at `addr` (e.g. `127.0.0.1:7777`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response round trips suffer badly from Nagle + delayed
        // ACK; a line is always a complete message, so send it at once.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one already-formed request object (the `id` field is filled
    /// in) and returns the parsed response.
    pub fn request(&mut self, mut req: Json) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        if let Json::Obj(fields) = &mut req {
            fields.insert("id".to_string(), Json::Int(id));
        }
        self.send_raw(&req.to_string())
    }

    /// Sends a raw request line verbatim and returns the parsed response.
    /// Unlike [`Client::request`] this does not manage ids — scripting
    /// callers own the whole line.
    pub fn send_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        // One write per line, so a request leaves as one segment.
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.stream.write_all(msg.as_bytes())?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(ClientError("server closed the connection".into()));
        }
        parse(resp.trim()).map_err(|e| ClientError(format!("bad response: {e}")))
    }

    /// `hello` handshake; returns the response.
    pub fn hello(&mut self, client_name: &str) -> Result<Json, ClientError> {
        self.request(obj([
            ("cmd", Json::str("hello")),
            ("client", Json::str(client_name)),
        ]))
    }

    /// Convenience: sends a command-only request (`status`, `begin`,
    /// `commit`, `rollback`, `shutdown`).
    pub fn command(&mut self, cmd: &str) -> Result<Json, ClientError> {
        self.request(obj([("cmd", Json::str(cmd))]))
    }

    /// True when a response line reports success.
    pub fn is_ok(resp: &Json) -> bool {
        resp.get("ok").and_then(Json::as_bool).unwrap_or(false)
    }

    /// The `error` code of a failed response, if any.
    pub fn error_code(resp: &Json) -> Option<&str> {
        resp.get("error").and_then(Json::as_str)
    }
}
