//! What the parser says about damaged input, pinned.
//!
//! `golden/errors.txt` holds one line per input of a fixed corpus —
//! `label <TAB> kind <TAB> byte position <TAB> context` for a rejected
//! input, `label <TAB> ok <TAB> tree` for an accepted one. It was captured
//! from the recursive-descent, `char`-at-a-time parser this crate started
//! with, before the byte-scanning tokenizer replaced it; the tokenizer has
//! to reproduce it byte for byte, and so does whatever comes after it.
//!
//! The corpus: every rejecting unit test of `parser.rs` and `escape.rs`,
//! hand-written damage of each kind the grammar knows (stray `<` `&` `"`,
//! bad entities, mismatched and unclosed tags, duplicate attributes,
//! trailing content, misplaced declarations, non-ASCII names), every
//! truncation of a domain document that uses the whole subset, and a
//! stray `<`, `&` and `"` dropped at every position of a `<disk>`.

use std::fmt::Write as _;

use virt_xml::{Document, Element};

const GOLDEN: &str = include_str!("golden/errors.txt");

/// A document that exercises the whole supported subset.
const DOMAIN: &str = "<?xml version=\"1.0\"?>\n\
<!-- d --><domain type=\"qemu\" id='7'>\n  \
<name>vm&amp;1</name>\n  \
<memory unit=\"MiB\">64</memory>\n  \
<devices><disk type=\"file\"><source file=\"/a b.img\"/><target dev=\"vda\" bus=\"virtio\"/></disk></devices>\n  \
<note><![CDATA[x < y]]>&#65;</note>\n  \
<\u{e9}t\u{e9} \u{fc}=\"\u{f6}\">\u{df}</\u{e9}t\u{e9}>\n\
</domain >\n\
<!-- tail -->\n";

const DISK: &str =
    "<disk type=\"file\"><source file='/a.img'/><target dev=\"vda\"/><capacity unit=\"MiB\">8</capacity></disk>";

const HAND_WRITTEN: &[&str] = &[
    // The rejecting unit tests of parser.rs ...
    "<a><b></a></b>",
    "<a x='1' x='2'/>",
    "<a><b/>",
    "<a/><b/>",
    "   \n ",
    "<a x=1/>",
    "<1a/>",
    "<a>x & y</a>",
    "<a x='<'/>",
    // ... and of escape.rs, in text and in an attribute value.
    "<a>&nbsp;</a>",
    "<a>&amp</a>",
    "<a>&#xD800;</a>",
    "<a v=\"&nbsp;\"/>",
    "<a v=\"&amp\"/>",
    "<a v='&#xD800;'/>",
    "<a>&#;</a>",
    "<a>&#x;</a>",
    "<a>&#xZZ;</a>",
    "<a>&#99999999999;</a>",
    "<a>&#x110000;</a>",
    "<a>&;</a>",
    "<a>&</a>",
    "<a v='&'/>",
    "<a>&\u{e9};</a>",
    // Nothing, or nothing that is a root.
    "",
    "<!-- only -->",
    "<?xml version='1.0'?>",
    "x",
    "x<a/>",
    "&amp;<a/>",
    // Declarations, comments, CDATA: misplaced or unterminated.
    "<?xml version='1.0'",
    "<?xml?><?xml?><a/>",
    "<!-- c --><?xml?><a/>",
    "<a/><?pi?>",
    "<a><?pi?></a>",
    "<!-- never closed <a/>",
    "<a><!-- never closed</a>",
    "<a/><!-- never closed",
    "<a><![CDATA[never closed</a>",
    "<a><![CDATA[x]]</a>",
    "<![CDATA[x]]><a/>",
    "<a><!x></a>",
    "<!DOCTYPE a><a/>",
    // Start tags.
    "<",
    "<a",
    "<a ",
    "<a/",
    "<a/ >",
    "< a/>",
    "<a b/>",
    "<a b>",
    "<a b =/>",
    "<a b= 'c'/>",
    "<a b ='c'/>",
    "<a b='c'c='d'/>",
    "<a b='c",
    "<a b=\"c'/>",
    "<a b='1' c='2' b='3'/>",
    "<a b='1' B='2'/>",
    "<a =='1'/>",
    "<a 1='1'/>",
    "<a -b='1'/>",
    "<a.b-c_d:e f.g-h_i:j='k'/>",
    "<-a/>",
    "<a\u{a0}b='1'/>",
    "<a\tb='1'\n c='2'\r/>",
    // Close tags.
    "<a></b>",
    "<a></a",
    "<a></a x>",
    "<a></ a>",
    "<a></>",
    "<a></ab>",
    "<ab></a>",
    "<a></A>",
    "</a>",
    "<a/></a>",
    "<a><b></b>",
    "<a><b></b></a></a>",
    "<a></a>x",
    "<a></a>&amp;",
    "<a></a><",
    // Non-ASCII: names, values, text, and where a name may not start.
    "<\u{e9}l\u{e9}ments attr='\u{fc}'>Gr\u{fc}\u{df}e \u{1f980}</\u{e9}l\u{e9}ments>",
    "<\u{540d}\u{524d} \u{5c5e}\u{6027}='\u{5024}'/>",
    "<a\u{e9}></a\u{e9}>",
    "<a\u{e9}></a>",
    "<a></a\u{e9}>",
    "<\u{1f980}/>",
    "<a \u{1f980}='1'/>",
    "<a\u{1f980}/>",
    "<\u{e9}></\u{e8}>",
    "<a>\u{1f980}<b/>\u{df}</a>",
    // Text, CDATA and comments where they are allowed.
    "<a> </a>",
    "<a>x<![CDATA[y]]>z</a>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[]]><![CDATA[]]>x</a>",
    "<a>x<!-- c -->y</a>",
    "<a><!----></a>",
    "<a><!-- -- --></a>",
    "<a>]]></a>",
    "<a>></a>",
    "<a>\"'</a>",
    "<a v='\"' w=\"'\"/>",
    "<a v='>'/>",
    "<a v='&#10;&#x9;&lt;'/>",
    "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#X43;</a>",
];

fn describe(input: &str) -> String {
    let tree = Element::parse(input);
    // Both consumers sit on one tokenizer: they accept and reject alike.
    let view = Document::parse(input).map(|doc| doc.root().to_element());
    assert_eq!(view, tree, "the borrowed view disagrees on {input:?}");
    match tree {
        Ok(el) => format!("ok\t{el:?}"),
        Err(e) => format!("{:?}\t{}\t{}", e.kind(), e.position(), e.context()),
    }
}

fn current() -> String {
    let mut out = String::new();
    for input in HAND_WRITTEN {
        writeln!(out, "{input:?}\t{}", describe(input)).unwrap();
    }
    for end in (0..DOMAIN.len()).filter(|&i| DOMAIN.is_char_boundary(i)) {
        writeln!(out, "domain[..{end}]\t{}", describe(&DOMAIN[..end])).unwrap();
    }
    for stray in ['<', '&', '"'] {
        for at in 0..=DISK.len() {
            let mut damaged = DISK.to_string();
            damaged.insert(at, stray);
            writeln!(out, "disk+{stray:?}@{at}\t{}", describe(&damaged)).unwrap();
        }
    }
    out
}

#[test]
fn the_corpus_is_answered_as_it_was_before_the_tokenizer() {
    let current = current();
    if current != GOLDEN {
        let differing = current
            .lines()
            .zip(GOLDEN.lines())
            .position(|(now, then)| now != then)
            .unwrap_or(current.lines().count().min(GOLDEN.lines().count()));
        println!("{current}");
        panic!(
            "parser answers differ from tests/golden/errors.txt at line {} \
             ({} lines now, {} golden); the current answers are printed above",
            differing + 1,
            current.lines().count(),
            GOLDEN.lines().count()
        );
    }
}

#[test]
fn the_whole_document_of_the_corpus_is_accepted() {
    let el = Element::parse(DOMAIN).expect("the undamaged domain document parses");
    assert_eq!(el.name(), "domain");
    assert_eq!(el.child_text("name"), Some("vm&1"));
    assert_eq!(el.child_text("note"), Some("x < yA"));
    assert_eq!(
        el.child("\u{e9}t\u{e9}").unwrap().attr("\u{fc}"),
        Some("\u{f6}")
    );
    assert!(Element::parse(DISK).is_ok());
}
