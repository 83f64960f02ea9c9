use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::event::{ComponentId, Event, WindowId};

/// A listener invoked on the dispatcher thread when an event reaches a
/// component (AWT `ActionListener` & co., paper §3.2).
pub type Listener = Arc<dyn Fn(&Event) + Send + Sync>;

/// The kinds of widgets the toolkit offers — the set the paper's tools need
/// (text editor with a menu, appletviewer, dialogs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ComponentKind {
    /// A push button.
    Button {
        /// The button label.
        label: String,
    },
    /// A non-interactive text label.
    Label {
        /// The displayed text.
        text: String,
    },
    /// An editable text field; typed characters accumulate in its content.
    TextField,
    /// A menu item (activates like a button).
    MenuItem {
        /// The item label.
        label: String,
    },
}

pub(crate) struct ComponentRecord {
    pub(crate) id: ComponentId,
    pub(crate) kind: ComponentKind,
    pub(crate) text: Mutex<String>,
    pub(crate) listeners: RwLock<Vec<Listener>>,
}

pub(crate) struct WindowInner {
    pub(crate) id: WindowId,
    pub(crate) title: String,
    /// The application tag the window belongs to — "when an application
    /// opens a window, the system makes note about which application the
    /// window belongs to" (paper §5.4).
    pub(crate) tag: u64,
    pub(crate) components: RwLock<Vec<Arc<ComponentRecord>>>,
    pub(crate) closing_listeners: RwLock<Vec<Listener>>,
    pub(crate) closed: AtomicBool,
    next_component: AtomicU64,
}

impl WindowInner {
    pub(crate) fn new(id: WindowId, title: String, tag: u64) -> Arc<WindowInner> {
        Arc::new(WindowInner {
            id,
            title,
            tag,
            components: RwLock::new(Vec::new()),
            closing_listeners: RwLock::new(Vec::new()),
            closed: AtomicBool::new(false),
            next_component: AtomicU64::new(1),
        })
    }

    /// Drops every listener of a closed window: it dispatches nothing
    /// more, and a listener holding its own window (an editor's Save
    /// action) would otherwise keep the window, its toolkit and the VM
    /// alive. Listeners registered on a closed window are dropped too.
    pub(crate) fn drop_listeners(&self) {
        self.closing_listeners.write().clear();
        for record in self.components.read().iter() {
            record.listeners.write().clear();
        }
    }

    /// Adds `listener` to `listeners` unless the window is closed. Checked
    /// under the list's lock, so a close that clears the list after
    /// setting `closed` cannot miss it.
    fn add_listener(&self, listeners: &RwLock<Vec<Listener>>, listener: Listener) {
        let mut listeners = listeners.write();
        if !self.closed.load(Ordering::SeqCst) {
            listeners.push(listener);
        }
    }

    pub(crate) fn add_component(&self, kind: ComponentKind) -> ComponentId {
        let id = ComponentId(self.next_component.fetch_add(1, Ordering::Relaxed));
        self.components.write().push(Arc::new(ComponentRecord {
            id,
            kind,
            text: Mutex::new(String::new()),
            listeners: RwLock::new(Vec::new()),
        }));
        id
    }

    pub(crate) fn component(&self, id: ComponentId) -> Option<Arc<ComponentRecord>> {
        self.components.read().iter().find(|c| c.id == id).cloned()
    }
}

/// A window handle given to applications.
///
/// Created through [`Toolkit::create_window`](crate::Toolkit::create_window);
/// closing goes back through the toolkit so the display registration and the
/// application's window bookkeeping stay consistent.
#[derive(Clone)]
pub struct Window {
    pub(crate) inner: Arc<WindowInner>,
    pub(crate) toolkit: crate::toolkit::Toolkit,
}

impl Window {
    /// The window id.
    pub fn id(&self) -> WindowId {
        self.inner.id
    }

    /// The window title.
    pub fn title(&self) -> &str {
        &self.inner.title
    }

    /// The application tag recorded at creation (paper §5.4).
    pub fn app_tag(&self) -> u64 {
        self.inner.tag
    }

    /// Returns `true` once the window is closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Adds a push button; returns its id.
    pub fn add_button(&self, label: &str) -> ComponentId {
        self.inner.add_component(ComponentKind::Button {
            label: label.to_string(),
        })
    }

    /// Adds a menu item; returns its id.
    pub fn add_menu_item(&self, label: &str) -> ComponentId {
        self.inner.add_component(ComponentKind::MenuItem {
            label: label.to_string(),
        })
    }

    /// Adds a label.
    pub fn add_label(&self, text: &str) -> ComponentId {
        self.inner.add_component(ComponentKind::Label {
            text: text.to_string(),
        })
    }

    /// Adds an editable text field; returns its id.
    pub fn add_text_field(&self) -> ComponentId {
        self.inner.add_component(ComponentKind::TextField)
    }

    /// Registers `listener` for activation events on `component`. The
    /// listener runs on the event-dispatcher thread (whose identity is the
    /// crux of Fig 2 vs Fig 4).
    pub fn on_action(
        &self,
        component: ComponentId,
        listener: impl Fn(&Event) + Send + Sync + 'static,
    ) {
        if let Some(record) = self.inner.component(component) {
            self.inner
                .add_listener(&record.listeners, Arc::new(listener));
        }
    }

    /// Registers `listener` for the window's close request.
    pub fn on_closing(&self, listener: impl Fn(&Event) + Send + Sync + 'static) {
        self.inner
            .add_listener(&self.inner.closing_listeners, Arc::new(listener));
    }

    /// Current content of a text field (typed characters accumulate).
    pub fn text_of(&self, component: ComponentId) -> Option<String> {
        self.inner
            .component(component)
            .map(|record| record.text.lock().clone())
    }

    /// Sets a text field's content programmatically.
    pub fn set_text(&self, component: ComponentId, text: &str) {
        if let Some(record) = self.inner.component(component) {
            *record.text.lock() = text.to_string();
        }
    }

    /// The label of a button/menu-item/label component.
    pub fn label_of(&self, component: ComponentId) -> Option<String> {
        self.inner
            .component(component)
            .map(|record| match &record.kind {
                ComponentKind::Button { label } | ComponentKind::MenuItem { label } => {
                    label.clone()
                }
                ComponentKind::Label { text } => text.clone(),
                ComponentKind::TextField => record.text.lock().clone(),
            })
    }

    /// Closes the window: deregisters it from the display and the toolkit.
    pub fn close(&self) {
        self.toolkit.close_window(self.inner.id);
    }
}

impl fmt::Debug for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Window")
            .field("id", &self.inner.id)
            .field("title", &self.inner.title)
            .field("tag", &self.inner.tag)
            .field("components", &self.inner.components.read().len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_records_have_unique_ids() {
        let w = WindowInner::new(WindowId(1), "t".into(), 0);
        let a = w.add_component(ComponentKind::Button { label: "a".into() });
        let b = w.add_component(ComponentKind::TextField);
        assert_ne!(a, b);
        assert!(w.component(a).is_some());
        assert!(w.component(ComponentId(999)).is_none());
    }
}
